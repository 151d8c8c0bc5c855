"""Measured-vs-modelled per-phase attribution report.

The one path that checks the analytic cost model against measurement:
it joins the wall-clock span totals a traced fit produced
(:class:`~repro.observe.Tracer`) against the model's per-phase
predictions, so a mismatch says *which* phase the model got wrong.
``python -m repro.experiments observe-report`` runs it on a traced
sharded fit, and the repository benchmark (``perfbench/``) reads its
per-phase ratios.

Phase mapping
-------------
==============  ====================  ================================
Phase           Measured from spans   Modelled from
==============  ====================  ================================
``form_block``  worker ``form_block`` ``kernel_eval`` ops / rate
``gemm``        worker ``gemm``       ``gemm`` ops / rate
``correction``  ``correction``        ``precond`` ops / rate
``allreduce``   ``allreduce``         :func:`~repro.device.cluster.allreduce_time` per call
``setup``       ``setup``             (unmodelled; reported measured-only)
``mirror``      ``mirror``            (unmodelled; reported measured-only)
``checkpoint``  ``checkpoint``        (unmodelled; reported measured-only)
``recovery``    ``recovery``          :func:`~repro.device.cluster.recovery_time` per event
==============  ====================  ================================

The scalar rate is calibrated from the run itself unless given: total
mapped compute ops divided by total mapped compute seconds.  The ``eig`` ops of the one-time setup eigensystem
fall outside every per-step span, so they are charged to no compute
phase and never enter the calibrated rate.

A recovery's replayed steps are priced at the run's own per-step time:
the wall seconds of the step phases (``form_block``, ``gemm``,
``correction``, ``allreduce``) over the number of steps traced (``0``
when none were).  A step contracts exactly once on every timeline that
runs it — the caller's in a serial fit, each shard's in a sharded one —
so the steps are the most ``gemm`` spans one timeline recorded.  The
``correction`` spans do not count steps: a sharded fit runs each step's
correction on shard 0, which holds the subsample, the last step's in
a separate settle task at the end of a span.

Each row sums every span of its phase.  The TOTAL row and the per-step
time count wall time instead: the shards run side by side, so a worker
phase (spans carrying a ``shard`` attribute) enters them as the slowest
shard's sum — for ``correction`` in a sharded fit, shard 0's — and
TOTAL cannot exceed the fit's wall time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro.device.cluster import (
    Interconnect,
    allreduce_time,
    recovery_time,
    transport_interconnect,
)
from repro.instrument import Tracer

__all__ = ["PhaseComparison", "compare_phases", "render_comparison"]

#: Span-name → op-category mapping for the compute phases.
PHASE_OP_CATEGORIES: dict[str, tuple[str, ...]] = {
    "form_block": ("kernel_eval",),
    "gemm": ("gemm",),
    "correction": ("precond",),
}

#: Phases whose wall time makes up one training step.
STEP_PHASES: tuple[str, ...] = (*PHASE_OP_CATEGORIES, "allreduce")

#: Phases reported measured-only (no analytic model term).
UNMODELLED_PHASES: tuple[str, ...] = ("setup", "mirror", "checkpoint")


@dataclass(frozen=True)
class PhaseComparison:
    """One row of the report: a phase's measured vs modelled seconds."""

    phase: str
    measured_s: float
    modelled_s: float | None
    spans: int

    @property
    def model_over_measured(self) -> float | None:
        if self.modelled_s is None or self.measured_s <= 0:
            return None
        return self.modelled_s / self.measured_s

    def as_dict(self) -> dict[str, Any]:
        return {
            "phase": self.phase,
            "measured_s": self.measured_s,
            "modelled_s": self.modelled_s,
            "spans": self.spans,
            "model_over_measured": self.model_over_measured,
        }


def _wall_seconds(tracer: Tracer) -> dict[str, float]:
    """Per span name: caller spans summed, plus the slowest shard's sum
    of the worker spans (those with a ``shard`` attribute)."""
    wall: dict[str, float] = {}
    shards: dict[str, dict[Any, float]] = {}
    for ev in tracer.events:
        shard = ev.attrs.get("shard")
        if shard is None:
            wall[ev.name] = wall.get(ev.name, 0.0) + ev.duration_s
        else:
            sums = shards.setdefault(ev.name, {})
            sums[shard] = sums.get(shard, 0.0) + ev.duration_s
    for name, sums in shards.items():
        wall[name] = wall.get(name, 0.0) + max(sums.values())
    return wall


def _step_count(tracer: Tracer) -> int:
    """Steps traced: the most ``gemm`` spans one timeline (the caller,
    or one shard) recorded (module docstring)."""
    per_timeline: dict[Any, int] = {}
    for ev in tracer.events:
        if ev.name == "gemm":
            shard = ev.attrs.get("shard")
            per_timeline[shard] = per_timeline.get(shard, 0) + 1
    return max(per_timeline.values(), default=0)


def compare_phases(
    tracer: Tracer,
    *,
    g: int,
    link: str | Interconnect = "thread",
    allreduce_payload_scalars: float = 0.0,
    op_counts: Mapping[str, int] | None = None,
    scalar_rate: float | None = None,
    weight_scalars: float | None = None,
    recovery_events: Iterable[Any] = (),
    run_id: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """Join measured span totals against per-phase model predictions.

    Parameters
    ----------
    tracer:
        The tracer a fit ran under (worker spans relayed in).
    g:
        Shard count of the fit.
    link:
        Link-model name (``"thread"`` or ``"process"``) or an explicit
        :class:`Interconnect`.
    allreduce_payload_scalars:
        Scalars reduced per allreduce call (``m * l`` for a fit with
        batch ``m`` and ``l`` outputs).
    op_counts:
        Aggregate ``{category: ops}`` for the run (e.g.
        ``group.op_counts()`` or a host-side meter snapshot).  Required
        for modelled compute phases; measured-only without it.
    scalar_rate:
        Scalars/second of one shard device.  Calibrated from the run's
        own compute spans when omitted.
    weight_scalars:
        Size of the replicated weight state, pricing the recovery
        restore/reshard terms.  Recovery is measured-only without it.
    recovery_events:
        The fit's ``recovery_log_`` (may be empty).
    run_id:
        Optional run identifier stamped into the report.

    Returns a plain-dict report: ``{"phases": [...], "calibration":
    {...}, "totals": {...}}``; render with :func:`render_comparison`.
    """
    interconnect = (
        transport_interconnect(link) if isinstance(link, str) else link
    )
    totals = tracer.totals()
    counts = tracer.counts()
    wall = _wall_seconds(tracer)
    op_counts = dict(op_counts or {})
    recovery_events = list(recovery_events)

    # Calibrate the per-shard scalar rate from the run's own compute
    # spans when not supplied.  Worker compute phases run g-wide in
    # parallel, so the aggregate ops over the summed per-shard span
    # seconds already measures a *single shard's* rate.
    compute_ops = sum(
        op_counts.get(c, 0)
        for cats in PHASE_OP_CATEGORIES.values()
        for c in cats
    )
    compute_s = sum(totals.get(p, 0.0) for p in PHASE_OP_CATEGORIES)
    calibrated = False
    if scalar_rate is None and compute_ops > 0 and compute_s > 0:
        scalar_rate = compute_ops / compute_s
        calibrated = True

    rows: list[PhaseComparison] = []
    for phase, categories in PHASE_OP_CATEGORIES.items():
        ops = sum(op_counts.get(c, 0) for c in categories)
        modelled = ops / scalar_rate if scalar_rate and ops else None
        rows.append(PhaseComparison(
            phase=phase,
            measured_s=totals.get(phase, 0.0),
            modelled_s=modelled,
            spans=counts.get(phase, 0),
        ))

    n_allreduce = counts.get("allreduce", 0)
    modelled_allreduce = (
        n_allreduce * allreduce_time(interconnect, g, allreduce_payload_scalars)
        if n_allreduce and g >= 1 else None
    )
    rows.append(PhaseComparison(
        phase="allreduce",
        measured_s=totals.get("allreduce", 0.0),
        modelled_s=modelled_allreduce,
        spans=n_allreduce,
    ))

    for phase in UNMODELLED_PHASES:
        rows.append(PhaseComparison(
            phase=phase,
            measured_s=totals.get(phase, 0.0),
            modelled_s=None,
            spans=counts.get(phase, 0),
        ))

    steps = _step_count(tracer)
    step_s = (
        sum(wall.get(p, 0.0) for p in STEP_PHASES) / steps if steps else 0.0
    )
    measured_recovery = sum(ev.recovery_s for ev in recovery_events)
    modelled_recovery = None
    if recovery_events and weight_scalars is not None:
        modelled_recovery = sum(
            recovery_time(
                interconnect,
                ev.old_g,
                weight_scalars=weight_scalars,
                replayed_iterations=ev.replayed_steps,
                iteration_time_s=step_s,
            )
            for ev in recovery_events
        )
    rows.append(PhaseComparison(
        phase="recovery",
        measured_s=measured_recovery,
        modelled_s=modelled_recovery,
        spans=len(recovery_events),
    ))

    report: dict[str, Any] = {
        "g": g,
        "link": link if isinstance(link, str) else "custom",
        "phases": [row.as_dict() for row in rows],
        "calibration": {
            "scalar_rate": scalar_rate,
            "calibrated_from_run": calibrated,
            "compute_ops": compute_ops,
            "compute_s": compute_s,
        },
        "totals": {
            "measured_s": measured_recovery + sum(
                wall.get(r.phase, 0.0) for r in rows if r.phase != "recovery"
            ),
            "modelled_s": sum(
                r.modelled_s for r in rows if r.modelled_s is not None
            ),
        },
    }
    if run_id is not None:
        report["run_id"] = dict(run_id)
    return report


def render_comparison(report: Mapping[str, Any]) -> str:
    """Fixed-width table rendering of a :func:`compare_phases` report."""
    header = ("phase", "spans", "measured_ms", "modelled_ms", "model/measured")
    body: list[tuple[str, ...]] = []
    for row in report["phases"]:
        ratio = row["model_over_measured"]
        body.append((
            row["phase"],
            str(row["spans"]),
            f"{row['measured_s'] * 1e3:.3f}",
            "-" if row["modelled_s"] is None
            else f"{row['modelled_s'] * 1e3:.3f}",
            "-" if ratio is None else f"{ratio:.2f}",
        ))
    totals = report["totals"]
    body.append((
        "TOTAL", "",
        f"{totals['measured_s'] * 1e3:.3f}",
        f"{totals['modelled_s'] * 1e3:.3f}",
        "",
    ))
    widths = [
        max(len(header[i]), *(len(r[i]) for r in body))
        for i in range(len(header))
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(header)),
        "  ".join("-" * w for w in widths),
    ]
    lines += [
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(r))
        for r in body
    ]
    cal = report["calibration"]
    if cal["scalar_rate"]:
        src = "run-calibrated" if cal["calibrated_from_run"] else "given"
        lines.append(
            f"rate: {cal['scalar_rate']:.3e} scalars/s ({src}); "
            f"link={report['link']}, g={report['g']}"
        )
    return "\n".join(lines)
