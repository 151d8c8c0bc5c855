"""Trace exporters: JSON-lines event log and Chrome/Perfetto format.

Two renderings of the same :class:`~repro.observe.Tracer`:

- :func:`export_jsonl` — one JSON object per line, greppable and
  streamable, with a leading ``run_start`` header carrying the run ID;
- :func:`export_perfetto` — the Chrome ``trace_event`` JSON object
  format (`ph: "X"` complete events), loadable in ``chrome://tracing``
  or https://ui.perfetto.dev.  Spans carrying a ``shard`` attribute are
  mapped to per-shard rows (``pid = shard + 1``) so a sharded fit
  renders as one timeline lane per shard next to the trainer lane
  (``pid = 0``).
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Mapping

from repro.instrument import Tracer

__all__ = [
    "export_jsonl",
    "export_perfetto",
    "perfetto_payload",
    "validate_perfetto",
]

#: pid of the caller-side (trainer) timeline in exported traces.
TRAINER_PID = 0


def export_jsonl(
    tracer: Tracer,
    path: str | pathlib.Path,
    *,
    run_id: Mapping[str, Any] | None = None,
) -> pathlib.Path:
    """Write the tracer's spans as a JSON-lines event log.

    The first line is a ``{"event": "run_start", ...}`` header; every
    following line is one span in :meth:`SpanEvent.as_dict` form plus
    ``{"event": "span"}``.  Returns the path written.
    """
    path = pathlib.Path(path)
    events = sorted(tracer.events, key=lambda ev: (ev.start_s, ev.name))
    with path.open("w", encoding="utf-8") as fh:
        header: dict[str, Any] = {"event": "run_start", "spans": len(events)}
        if run_id is not None:
            header["run_id"] = dict(run_id)
        fh.write(json.dumps(header) + "\n")
        for ev in events:
            line = {"event": "span", **ev.as_dict()}
            fh.write(json.dumps(line) + "\n")
    return path


def _event_pid(attrs: Mapping[str, Any]) -> int:
    shard = attrs.get("shard")
    if shard is None:
        return TRAINER_PID
    return int(shard) + 1


def perfetto_payload(
    tracer: Tracer,
    *,
    run_id: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """Build the Chrome ``trace_event`` object for a tracer.

    Timestamps are microseconds relative to the earliest span, so the
    trace starts at t=0 regardless of the process's ``perf_counter``
    epoch.  Thread names become ``tid`` lanes via metadata events;
    worker-side spans (``shard=i`` attribute) get their own process
    lane named ``"shard i"``.
    """
    events = sorted(tracer.events, key=lambda ev: (ev.start_s, ev.name))
    epoch = events[0].start_s if events else 0.0

    tids: dict[tuple[int, str], int] = {}
    pids: dict[int, str] = {TRAINER_PID: "trainer"}
    trace_events: list[dict[str, Any]] = []
    for ev in events:
        pid = _event_pid(ev.attrs)
        if pid not in pids:
            pids[pid] = f"shard {pid - 1}"
        key = (pid, ev.thread or "main")
        if key not in tids:
            tids[key] = len([k for k in tids if k[0] == pid])
        trace_events.append({
            "name": ev.name,
            "cat": "repro",
            "ph": "X",
            "ts": (ev.start_s - epoch) * 1e6,
            "dur": ev.duration_s * 1e6,
            "pid": pid,
            "tid": tids[key],
            "args": {k: _jsonable(v) for k, v in ev.attrs.items()},
        })

    metadata: list[dict[str, Any]] = []
    for pid, name in sorted(pids.items()):
        metadata.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": name},
        })
    for (pid, thread_name), tid in sorted(tids.items(), key=lambda kv: kv[1]):
        metadata.append({
            "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
            "args": {"name": thread_name},
        })

    payload: dict[str, Any] = {
        "traceEvents": metadata + trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"exporter": "repro.observe"},
    }
    if run_id is not None:
        payload["otherData"]["run_id"] = dict(run_id)
    return payload


def export_perfetto(
    tracer: Tracer,
    path: str | pathlib.Path,
    *,
    run_id: Mapping[str, Any] | None = None,
) -> pathlib.Path:
    """Write the tracer as a Chrome/Perfetto trace file.

    Open the resulting ``.json`` in ``chrome://tracing`` or the
    Perfetto UI to see the per-shard timelines.  Returns the path.
    """
    path = pathlib.Path(path)
    payload = perfetto_payload(tracer, run_id=run_id)
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return path


def validate_perfetto(payload: Mapping[str, Any]) -> None:
    """Raise ``ValueError`` unless ``payload`` is a well-formed
    ``trace_event`` object (the schema the round-trip test pins)."""
    if "traceEvents" not in payload:
        raise ValueError("missing traceEvents")
    if not isinstance(payload["traceEvents"], list):
        raise ValueError("traceEvents must be a list")
    for ev in payload["traceEvents"]:
        for field in ("name", "ph", "pid", "tid"):
            if field not in ev:
                raise ValueError(f"event missing {field!r}: {ev}")
        if ev["ph"] == "X":
            if "ts" not in ev or "dur" not in ev:
                raise ValueError(f"complete event missing ts/dur: {ev}")
            if ev["ts"] < 0 or ev["dur"] < 0:
                raise ValueError(f"negative ts/dur: {ev}")
        elif ev["ph"] == "M":
            if "args" not in ev or "name" not in ev["args"]:
                raise ValueError(f"metadata event missing args.name: {ev}")
        else:
            raise ValueError(f"unexpected phase {ev['ph']!r}")


def _jsonable(value: Any) -> Any:
    """Coerce a span attribute to a JSON-serializable scalar."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    try:
        return int(value)  # numpy integers
    except (TypeError, ValueError):
        return str(value)
