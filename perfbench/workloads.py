"""The benchmark's workloads: inputs drawn from a seed, timed units of work,
output checks, and the end-to-end and per-layer metrics each run reports.

Three workloads share one measurement discipline:

- An untraced run repeats its unit of work (one ``fit()``, or one serving
  round of closed-loop HTTP requests) until the time budget is spent and
  reports medians: these are the end-to-end metrics.
- A traced run alternates untraced and traced units.  A traced unit runs
  under a :class:`ledger.Ledger` (timing wrappers on public entry points),
  a :class:`repro.observe.Tracer` and a :class:`repro.instrument.OpMeter`;
  its per-layer metrics are the medians over the traced units, and the
  traced-over-untraced wall time is the telemetry's own cost.

Every workload reports every end-to-end metric:

==================  ===========================  ==============================
metric              fit workloads                ``serve-http``
==================  ===========================  ==============================
``setup_s``         fit wall minus the epoch     group build + HTTP bind
                    clock of ``history_``
``fit_s``           wall time of ``fit()``       the fit that trained the
                                                 served weights
``test_mse``        held-out MSE after the       held-out MSE of the served
                    fixed epochs                 model, predicted through the
                                                 serving group
``peak_rss_mb``     peak RSS of this process during the unit plus the
                    private peak of its live shard worker processes
                    (lowest over fits; see :func:`peak_rss_mb`)
``throughput_rps``  128-row predicts on the      HTTP requests per second
                    trained model, per second
``latency_p50_ms``  of those predicts            client-observed, over HTTP
``success_rate``    correct operations over attempted ones
==================  ===========================  ==============================

Every per-layer metric is emitted on every workload.  A layer that does
not run on a workload reads 0 there (no calls, no seconds, no ops).  The
per-layer set also carries ``latency_p99_ms`` of the untraced units,
reported but not gated (see :func:`latency_p99_ms`).
"""

from __future__ import annotations

import contextlib
import math
import os
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.core.eigenpro2 import EigenPro2
from repro.instrument import OP_CATEGORIES, OpMeter, meter_scope
from repro.kernels import GaussianKernel
from repro.observe import Tracer, compare_phases, trace_scope
from repro.serve import HttpClient, ModelServer, PredictRequest, ServeHTTPServer
from repro.shard import ShardedEigenPro2, sharded_predict
from repro.shard.transport import resolve_transport

from ledger import Ledger, union_seconds

#: Seed of the fixed regression target; the workload seed draws the
#: sample, so changing it changes the inputs but not the problem.
TEACHER_SEED = 20190401

#: Relative bound on ``test_mse`` against the workload's committed median.
#: Over seeds 0-15 the held-out MSE of each workload stays within 5% of
#: its median (standard deviation 1-2.5%), so the bound holds for any seed
#: while a numerics change that costs 10% of accuracy fails the run.
MSE_RTOL = 0.10

MODEL_PHASES = ("form_block", "gemm", "correction", "allreduce")


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def latency_p50_ms(units: list[list[float]]) -> float:
    """The median over units of work of each unit's median latency, in ms."""
    return median([percentile(u, 50) * 1e3 for u in units])


def latency_p99_ms(units: list[list[float]]) -> float:
    """The p99 latency over every sample of the run, in ms.  It is a
    per-layer (ungated) metric: on a shared 2-CPU host one stall moves it
    by more than any bound the benchmark may set."""
    return percentile([s for u in units for s in u], 99) * 1e3


@dataclass
class Outcome:
    """What one workload run reports back to ``run.py``."""

    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    host: dict[str, Any]
    notes: list[str] = field(default_factory=list)


# --------------------------------------------------------------- memory


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _shared_kb(pid: int) -> int:
    """Resident pages of ``pid`` that other processes map too, in KiB."""
    try:
        with open(f"/proc/{pid}/smaps_rollup") as fh:
            return sum(
                int(line.split()[1])
                for line in fh
                if line.startswith(("Shared_Clean:", "Shared_Dirty:"))
            )
    except OSError:
        return 0


def _descendants(root: int) -> list[int]:
    parents: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        parents[int(entry)] = int(fields[1])
    found, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        kids = [child for child, parent in parents.items() if parent == pid]
        found += kids
        frontier += kids
    return found


def reset_peak_rss() -> None:
    """Restart this process's peak-RSS counter at its current RSS, so the
    next :func:`peak_rss_mb` covers one unit of work.  Freed memory the
    allocator keeps differs from unit to unit, and a peak over the whole
    process would report whichever unit happened to stack highest.
    Without the kernel interface the counter keeps running."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """Peak resident set of this process (since :func:`reset_peak_rss`)
    plus, for every live descendant (shard worker processes), its peak
    resident set less the pages it shares with other processes, in MiB.

    Workers map this process's shared-memory segments and, when forked,
    inherit its pages copy-on-write: those pages are counted once, here.
    A worker keeps its shared mappings for its whole life, so the pages
    it shares when this is read are the ones it shared at its peak."""
    me = os.getpid()
    kb = _vm_hwm_kb(me) + sum(
        max(0, _vm_hwm_kb(pid) - _shared_kb(pid)) for pid in _descendants(me)
    )
    return kb / 1024.0


# ------------------------------------------------------------- budgeting


#: Serving set-ups timed per run, and warm-up requests per caller before
#: the first measured round.
SETUP_CYCLES = 5
WARMUP_REQUESTS = 50


def repeat_for(seconds: float, trace: bool, unit: Callable[[int], float]) -> None:
    """Call ``unit(i)`` (which returns its own wall seconds) once, twice
    when tracing (an untraced/traced pair), then while another unit of
    median length still fits in ``seconds``.

    Runs are short on purpose: on a shared host, speed drifts over
    minutes, so ten short runs agree better than ten long ones."""
    start = time.perf_counter()
    walls: list[float] = []
    while True:
        walls.append(unit(len(walls)))
        elapsed = time.perf_counter() - start
        if len(walls) >= (2 if trace else 1) and elapsed + median(walls) > seconds:
            return


# ------------------------------------------------------------- checking


def check_mse(expected: float | None, value: float) -> list[str]:
    """Reasons a test MSE is wrong: non-finite, or more than
    :data:`MSE_RTOL` off the committed median (when one is given)."""
    if not math.isfinite(value):
        return [f"non-finite test MSE {value!r}"]
    if expected is None or abs(value - expected) <= MSE_RTOL * expected:
        return []
    return [
        f"test MSE {value!r} is not within {MSE_RTOL:.0%} of the committed "
        f"median {expected!r}"
    ]


def check_history(trainer: EigenPro2) -> list[str]:
    train_mse = trainer.history_.series("train_mse")
    if all(v is not None and math.isfinite(v) for v in train_mse):
        return []
    return [f"non-finite train MSE history {train_mse}"]


# ================================================================= fits


@dataclass(frozen=True)
class FitShape:
    n: int = 8000
    n_test: int = 16000  # large, so test_mse varies little from seed to seed
    d: int = 32
    l: int = 10
    bandwidth: float = 4.0
    epochs: int = 3
    batch_size: int | None = None  # None: the analytic m of EigenPro 2.0
    g: int = 1
    transport: str | None = None  # None: unsharded EigenPro2
    expected_mse: float | None = None  # committed median test_mse, if checked
    # Predicts after each fit, of probe_rows rows: large enough that the
    # kernel block, not thread wake-ups, sets their latency.
    probe_requests: int = 300
    probe_rows: int = 128


# The committed medians are the median test_mse over seeds 0-15; measure
# them again only for a change meant to alter the numerics.
FIT_LARGE_BATCH = FitShape(epochs=3, expected_mse=0.02715)
FIT_SHARDED = FitShape(
    epochs=2, batch_size=256, g=2, transport="process", expected_mse=0.01929,
)


def fit_inputs(
    shape: FitShape, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(x, y, x_test, y_test)``: Gaussian inputs drawn from ``seed``,
    targets from a fixed smooth teacher ``tanh(x W / sqrt(d))``."""
    teacher = np.random.default_rng(TEACHER_SEED).standard_normal(
        (shape.d, shape.l)
    )
    x = np.random.default_rng(seed).standard_normal(
        (shape.n + shape.n_test, shape.d)
    )
    y = np.tanh(x @ teacher / math.sqrt(shape.d))
    return x[: shape.n], y[: shape.n], x[shape.n :], y[shape.n :]


def make_trainer(shape: FitShape, seed: int) -> EigenPro2:
    kernel = GaussianKernel(bandwidth=shape.bandwidth)
    if shape.transport is None:
        return EigenPro2(kernel, batch_size=shape.batch_size, seed=seed)
    return ShardedEigenPro2(
        kernel, n_shards=shape.g, transport=shape.transport,
        batch_size=shape.batch_size, seed=seed,
    )


@dataclass
class FitUnit:
    wall_s: float  # the whole unit: fit, test predict and probes
    fit_s: float
    setup_s: float
    test_mse: float
    peak_rss_mb: float
    probe_s: list[float]
    probe_wall_s: float
    problems: list[str]
    layers: dict[str, float] | None = None


def _host_intervals(
    tracer: Tracer, ledger: Ledger
) -> list[tuple[float, float]]:
    """Intervals some layer accounts for on the main thread: caller-side
    spans (worker spans carry a ``shard`` attribute and are excluded, as
    is the ``epoch`` container) and wrapped entry-point calls."""
    main = threading.main_thread()
    spans = [
        (ev.start_s, ev.start_s + ev.duration_s)
        for ev in tracer.events
        if ev.thread == main.name
        and "shard" not in ev.attrs
        and ev.name != "epoch"
    ]
    return spans + ledger.intervals(main.ident)


def fit_layers(
    shape: FitShape,
    trainer: EigenPro2,
    tracer: Tracer,
    meter: OpMeter,
    ledger: Ledger,
    window: tuple[float, float],
) -> dict[str, float]:
    """Per-layer metrics of one traced fit."""
    totals, counts = tracer.totals(), tracer.counts()
    ops = meter.as_dict()
    busy: dict[int, float] = {}
    for ev in tracer.events:
        if "shard" in ev.attrs and ev.depth == 0:
            shard = int(ev.attrs["shard"])
            busy[shard] = busy.get(shard, 0.0) + ev.duration_s
    link = (
        resolve_transport(shape.transport).link_name()
        if shape.transport else "thread"
    )
    report = compare_phases(
        tracer, g=shape.g, link=link,
        allreduce_payload_scalars=float(trainer.batch_size_ * shape.l),
        op_counts=ops,
    )
    ratios = {row["phase"]: row["model_over_measured"] for row in report["phases"]}
    lo, hi = window
    attributed = union_seconds(_host_intervals(tracer, ledger), lo, hi)
    layers = {
        "linalg.nystrom_extension_s": ledger.seconds("linalg.nystrom_extension"),
        "core.estimate_beta_s": ledger.seconds("core.estimate_beta"),
        "core.select_parameters_s": ledger.seconds("core.select_parameters"),
        "core.steps": float(trainer.history_.final.iterations),
        "core.form_block_s": totals.get("form_block", 0.0),
        "core.gemm_s": totals.get("gemm", 0.0),
        "core.correction_s": totals.get("correction", 0.0),
        "core.monitor_s": ledger.seconds("core.monitor"),
        "core.form_block_wait_s": totals.get("form_block_wait", 0.0),
        "core.gemm_wait_s": totals.get("gemm_wait", 0.0),
        "kernels.eval_s": ledger.seconds("kernels.eval"),
        "kernels.eval_calls": float(ledger.count("kernels.eval")),
        "shard.group_build_s": ledger.seconds("shard.group_build"),
        "shard.dispatch_s": ledger.seconds("shard.dispatch"),
        "shard.allreduce_s": totals.get("allreduce", 0.0),
        "shard.allreduce_calls": float(ledger.count("shard.allreduce")),
        "shard.allreduce_bytes": float(sum(ledger.measured["shard.allreduce"])),
        "shard.mirror_s": totals.get("mirror", 0.0),
        "shard.checkpoint_s": totals.get("checkpoint", 0.0),
        "shard.checkpoints": float(counts.get("checkpoint", 0)),
        "shard.recoveries": float(len(getattr(trainer, "recovery_log_", []))),
        "shard.worker_busy_s.max": max(busy.values(), default=0.0),
        "shard.worker_busy_s.min": min(busy.values(), default=0.0),
        "unattributed_frac": 1.0 - attributed / (hi - lo),
    }
    for category in OP_CATEGORIES:
        layers[f"instrument.ops.{category}"] = float(ops.get(category, 0))
    for phase in MODEL_PHASES:
        layers[f"observe.model_ratio.{phase}"] = float(ratios.get(phase) or 0.0)
    return layers


def fit_once(
    shape: FitShape, seed: int, data: tuple, traced: bool
) -> FitUnit:
    """One fit, its held-out MSE, and a closed loop of small in-process
    predicts on the trained model.  (Predicts through a shard group are
    what ``serve-http`` measures.)"""
    start = time.perf_counter()
    reset_peak_rss()
    x, y, x_test, y_test = data
    trainer = make_trainer(shape, seed)
    tracer, meter, ledger = Tracer(), OpMeter(), Ledger()
    scopes = (
        (ledger.installed(), trace_scope(tracer), meter_scope(meter))
        if traced else ()
    )
    try:
        with contextlib.ExitStack() as stack:
            for scope in scopes:
                stack.enter_context(scope)
            t0 = time.perf_counter()
            trainer.fit(x, y, epochs=shape.epochs)
            t1 = time.perf_counter()
        pred = np.asarray(trainer.predict(x_test))
        b = shape.probe_rows
        starts = [(i * b) % (len(x_test) - b + 1) for i in range(shape.probe_requests)]
        probed = []
        probe_s = []
        p0 = time.perf_counter()
        for lo in starts:
            r0 = time.perf_counter()
            probed.append(np.asarray(trainer.predict(x_test[lo : lo + b])))
            probe_s.append(time.perf_counter() - r0)
        probe_wall = time.perf_counter() - p0
        rss = peak_rss_mb()
        test_mse = float(np.mean((pred - y_test) ** 2))
        problems = check_history(trainer) + check_mse(shape.expected_mse, test_mse)
        if not all(
            np.allclose(out, pred[lo : lo + b], rtol=1e-9, atol=1e-12)
            for lo, out in zip(starts, probed)
        ):
            problems.append("probe predicts differ from the test-set predict")
        unit = FitUnit(
            wall_s=0.0,
            fit_s=t1 - t0,
            # The epoch clock starts after set-up and stops after the last
            # epoch's monitor: what precedes it is set-up.
            setup_s=(t1 - t0) - trainer.history_.final.wall_time,
            test_mse=test_mse,
            peak_rss_mb=rss,
            probe_s=probe_s,
            probe_wall_s=probe_wall,
            problems=problems,
        )
        if traced:
            unit.layers = fit_layers(shape, trainer, tracer, meter, ledger, (t0, t1))
    finally:
        if isinstance(trainer, ShardedEigenPro2):
            trainer.close()
    unit.wall_s = time.perf_counter() - start
    return unit


def run_fit(shape: FitShape, seed: int, seconds: float, trace: bool) -> Outcome:
    data = fit_inputs(shape, seed)
    untraced: list[FitUnit] = []
    traced: list[FitUnit] = []

    def unit(i: int) -> float:
        # A traced run alternates untraced and traced fits, so both see
        # the same machine conditions; an untraced run never traces.
        is_traced = trace and i % 2 == 1
        done = fit_once(shape, seed, data, is_traced)
        (traced if is_traced else untraced).append(done)
        return done.wall_s

    if trace:
        # The first fit in a process pays one-time costs (first touch of
        # the block memory, lazy library set-up); left in, they would
        # land on one side of the traced/untraced comparison.
        fit_once(shape, seed, data, False)
    repeat_for(seconds, trace, unit)
    units = untraced + traced
    problems = [p for u in units for p in u.problems]
    failed = sum(1 for u in units if u.problems)
    if trace:
        metrics = _layer_medians([u.layers for u in traced])
        metrics["observe.trace_overhead_frac"] = (
            median([u.fit_s for u in traced]) / median([u.fit_s for u in untraced])
            - 1.0,
            "share",
        )
        # The probes run after the traced scopes close: all are untraced.
        metrics["latency_p99_ms"] = (latency_p99_ms([u.probe_s for u in units]), "ms")
    else:
        metrics = {
            "setup_s": (median([u.setup_s for u in units]), "s"),
            "fit_s": (median([u.fit_s for u in units]), "s"),
            "test_mse": (median([u.test_mse for u in units]), "mse"),
            # The lowest per-fit peak: a fit sometimes peaks higher by an
            # (s, s) block when the allocator still holds an earlier
            # fit's freed memory.
            "peak_rss_mb": (min(u.peak_rss_mb for u in units), "MB"),
            "throughput_rps": (
                median([len(u.probe_s) / u.probe_wall_s for u in units]), "req/s"
            ),
            "latency_p50_ms": (latency_p50_ms([u.probe_s for u in units]), "ms"),
            "success_rate": ((len(units) - failed) / len(units), "share"),
        }
    notes = [f"problem: {p}" for p in problems] + [
        f"fits={len(units)} traced={len(traced)} epochs={shape.epochs} "
        f"m={shape.batch_size or 'analytic'} "
        f"fit_s(all)={[round(u.fit_s, 3) for u in units]} "
        f"latency samples={sum(len(u.probe_s) for u in units)}"
    ]
    return Outcome(
        metrics=_with_zero_layers(metrics) if trace else metrics,
        attempted=len(units),
        failed=failed,
        host={"transport": shape.transport or "none", "g": shape.g},
        notes=notes,
    )


# =============================================================== serving


@dataclass(frozen=True)
class ServeShape:
    #: The fit that trains the served weights: one epoch, with a batch
    #: well below n so its kernel block stays small.
    fit: FitShape = FitShape(
        epochs=1, batch_size=1000, n_test=2000, expected_mse=0.02661
    )
    g: int = 2
    transport: str = "thread"
    callers: int = 2
    #: Requests per caller per round: short rounds, so the reported
    #: medians are taken over several rounds within one run.
    requests: int = 100


SERVE_HTTP = ServeShape()


def open_session(
    shape: ServeShape, model: Any
) -> tuple[ModelServer, ServeHTTPServer, float]:
    """Build the serving group and bind the HTTP listener; returns both
    and the seconds it took (the serving set-up)."""
    t0 = time.perf_counter()
    engine = ModelServer(model, g=shape.g, transport=shape.transport)
    try:
        http = ServeHTTPServer(engine)
    except BaseException:
        engine.close()
        raise
    return engine, http, time.perf_counter() - t0


def close_session(engine: ModelServer, http: ServeHTTPServer) -> None:
    try:
        http.close()
    finally:
        engine.close()


@dataclass
class Round:
    wall_s: float
    latencies: list[float]  # client-observed seconds, correct responses only
    engine_s: list[float]  # queue_s + batch_s the engine reported for them
    attempted: int
    problems: list[str]


def serve_round(url: str, rows: np.ndarray, refs: np.ndarray, count: int) -> Round:
    """Closed loop: each caller thread sends its next single-row request
    when the previous response arrives; every response is compared
    bitwise with its reference."""
    callers = rows.shape[0]
    results: list[list[tuple[float, float] | str]] = [[] for _ in range(callers)]
    start = threading.Barrier(callers + 1)

    def caller(c: int) -> None:
        client = HttpClient(url)
        out = results[c]
        start.wait()
        for i in range(count):
            t0 = time.perf_counter()
            try:
                resp = client.predict_request(PredictRequest(rows=rows[c, i]))
            except Exception as exc:  # noqa: BLE001 - counted as a failure
                out.append(f"request {c}/{i} failed: {type(exc).__name__}: {exc}")
                continue
            latency = time.perf_counter() - t0
            if not np.array_equal(resp.values, refs[c, i]):
                out.append(f"request {c}/{i} differs from solo sharded_predict")
                continue
            out.append((latency, resp.queue_s + resp.batch_s))

    threads = [threading.Thread(target=caller, args=(c,)) for c in range(callers)]
    for t in threads:
        t.start()
    start.wait()
    t0 = time.perf_counter()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    flat = [r for per in results for r in per]
    ok = [r for r in flat if not isinstance(r, str)]
    return Round(
        wall_s=wall,
        latencies=[lat for lat, _ in ok],
        engine_s=[eng for _, eng in ok],
        attempted=len(flat),
        problems=[r for r in flat if isinstance(r, str)],
    )


#: Engine histograms sliced per serving round.
SERVE_HISTOGRAMS = (
    "serve/request_s", "serve/queue_s", "serve/kernel_s", "serve/batch_requests",
)


class EngineMark:
    """The serving engine's cumulative stats, meter and tracer at one
    instant, so a round's share can be sliced out afterwards."""

    def __init__(self, engine: ModelServer) -> None:
        self.engine = engine
        self.hist = {
            name: len(engine.metrics.histogram_values(name))
            for name in SERVE_HISTOGRAMS
        }
        self.counters = dict(engine.stats()["counters"])
        self.ops = engine.meter.as_dict()
        self.spans = len(engine.tracer)

    def hist_since(self, name: str) -> list[float]:
        return self.engine.metrics.histogram_values(name)[self.hist[name]:]

    def counter_since(self, name: str) -> float:
        now = self.engine.stats()["counters"]
        return float(now.get(name, 0) - self.counters.get(name, 0))


def serve_layers(mark: EngineMark, rnd: Round, ledger: Ledger) -> dict[str, float]:
    """Per-layer metrics of one traced serving round."""
    engine = mark.engine
    ops = engine.meter.as_dict()
    span_totals: dict[str, float] = {}
    for ev in engine.tracer.events[mark.spans:]:
        span_totals[ev.name] = span_totals.get(ev.name, 0.0) + ev.duration_s
    overhead_ms = [(lat - eng) * 1e3 for lat, eng in zip(rnd.latencies, rnd.engine_s)]
    request_ms = [v * 1e3 for v in mark.hist_since("serve/request_s")]
    queue_ms = [v * 1e3 for v in mark.hist_since("serve/queue_s")]
    layers = {
        "kernels.eval_s": ledger.seconds("kernels.eval"),
        "kernels.eval_calls": float(ledger.count("kernels.eval")),
        "shard.dispatch_s": ledger.seconds("shard.dispatch"),
        "shard.allreduce_s": span_totals.get("allreduce", 0.0),
        "shard.allreduce_calls": float(ledger.count("shard.allreduce")),
        "shard.allreduce_bytes": float(sum(ledger.measured["shard.allreduce"])),
        "serve.http_overhead_ms.p50": percentile(overhead_ms, 50),
        "serve.request_ms.p50": percentile(request_ms, 50),
        "serve.request_ms.p99": percentile(request_ms, 99),
        "serve.queue_ms.p50": percentile(queue_ms, 50),
        "serve.queue_ms.p99": percentile(queue_ms, 99),
        "serve.kernel_ms.p50": percentile(mark.hist_since("serve/kernel_s"), 50) * 1e3,
        "serve.batch_requests.mean": float(
            np.mean(mark.hist_since("serve/batch_requests") or [0.0])
        ),
        "serve.batches": mark.counter_since("serve/batches"),
        "serve.failed_requests": mark.counter_since("serve/failed_requests"),
        "serve.retries": mark.counter_since("serve/retries"),
        "serve.shed_requests": mark.counter_since("serve/shed_requests"),
        # Client-observed time no server-side layer (the HTTP handler,
        # and the engine inside it) accounts for: connection set-up,
        # request parsing before the handler, client-side encode/decode.
        "unattributed_frac": (
            1.0 - ledger.seconds("serve.http_handler") / sum(rnd.latencies)
            if rnd.latencies else 0.0
        ),
    }
    for category in OP_CATEGORIES:
        layers[f"instrument.ops.{category}"] = float(
            ops.get(category, 0) - mark.ops.get(category, 0)
        )
    return layers


def run_serve(shape: ServeShape, seed: int, seconds: float, trace: bool) -> Outcome:
    fit = shape.fit
    x, y, x_test, y_test = fit_inputs(fit, seed)
    trainer = make_trainer(fit, seed)
    t0 = time.perf_counter()
    trainer.fit(x, y, epochs=fit.epochs)
    fit_s = time.perf_counter() - t0
    problems = check_history(trainer)
    model = trainer.model_
    reset_peak_rss()
    k = shape.callers * shape.requests
    rows = x_test[:k].reshape(shape.callers, shape.requests, fit.d)

    setups: list[float] = []
    builds: list[float] = []
    for _ in range(SETUP_CYCLES):
        ledger = Ledger()
        with ledger.installed() if trace else contextlib.nullcontext():
            engine, http, took = open_session(shape, model)
        close_session(engine, http)
        setups.append(took)
        builds += ledger.durations("shard.group_build")

    engine, http, took = open_session(shape, model)
    setups.append(took)
    rounds: list[Round] = []
    traced_layers: list[dict[str, float]] = []
    round_traced: list[bool] = []
    try:
        # The serving contract: a response equals a solo sharded_predict
        # of the same rows on the same group, computed before timing.
        refs = np.stack([
            np.stack([
                np.asarray(sharded_predict(engine.group, row[None, :]))[0]
                for row in caller_rows
            ])
            for caller_rows in rows
        ])
        # In chunks of k rows, so the held-out predict's kernel blocks
        # stay smaller than the serving session's own memory.
        served = np.concatenate([
            np.asarray(sharded_predict(engine.group, x_test[lo : lo + k]))
            for lo in range(0, len(x_test), k)
        ])
        test_mse = float(np.mean((served - y_test) ** 2))
        problems += check_mse(fit.expected_mse, test_mse)
        warm = serve_round(
            http.url, rows, refs, min(WARMUP_REQUESTS, shape.requests)
        )
        problems += warm.problems

        def unit(i: int) -> float:
            is_traced = trace and i % 2 == 1
            if is_traced:
                tracer = Tracer()
                ledger = Ledger(scope_factory=lambda: trace_scope(tracer))
                mark = EngineMark(engine)
                with ledger.installed():
                    rnd = serve_round(http.url, rows, refs, shape.requests)
                traced_layers.append(serve_layers(mark, rnd, ledger))
            else:
                rnd = serve_round(http.url, rows, refs, shape.requests)
            rounds.append(rnd)
            round_traced.append(is_traced)
            problems.extend(rnd.problems)
            return rnd.wall_s

        repeat_for(seconds, trace, unit)
        rss = peak_rss_mb()
    finally:
        close_session(engine, http)

    attempted = sum(r.attempted for r in rounds) + warm.attempted + 1
    failed = len(problems)
    samples = sum(len(r.latencies) for r in rounds)
    if trace:
        metrics = _layer_medians(traced_layers)
        metrics["shard.group_build_s"] = (median(builds), "s")
        walls = {
            kind: [r.wall_s for r, t in zip(rounds, round_traced) if t == kind]
            for kind in (False, True)
        }
        metrics["observe.trace_overhead_frac"] = (
            median(walls[True]) / median(walls[False]) - 1.0, "share"
        )
        untraced = [r.latencies for r, t in zip(rounds, round_traced) if not t]
        metrics["latency_p99_ms"] = (latency_p99_ms(untraced), "ms")
    else:
        metrics = {
            "setup_s": (median(setups), "s"),
            "fit_s": (fit_s, "s"),
            "test_mse": (test_mse, "mse"),
            "peak_rss_mb": (rss, "MB"),
            "throughput_rps": (
                median([len(r.latencies) / r.wall_s for r in rounds]), "req/s"
            ),
            "latency_p50_ms": (latency_p50_ms([r.latencies for r in rounds]), "ms"),
            "success_rate": ((attempted - failed) / attempted, "share"),
        }
    notes = [f"problem: {p}" for p in problems[:20]] + [
        f"rounds={len(rounds)} traced={len(traced_layers)} "
        f"callers={shape.callers} requests/round={k} "
        f"latency samples={samples} "
        f"rps(all)={[round(len(r.latencies) / r.wall_s, 1) for r in rounds]}"
    ]
    return Outcome(
        metrics=_with_zero_layers(metrics) if trace else metrics,
        attempted=attempted,
        failed=failed,
        host={"transport": shape.transport, "g": shape.g},
        notes=notes,
    )


# ============================================================== registry

#: Unit of every per-layer metric (all emitted on every workload).
LAYER_UNITS: dict[str, str] = {
    "linalg.nystrom_extension_s": "s",
    "core.estimate_beta_s": "s",
    "core.select_parameters_s": "s",
    "core.steps": "count",
    "core.form_block_s": "s",
    "core.gemm_s": "s",
    "core.correction_s": "s",
    "core.monitor_s": "s",
    "core.form_block_wait_s": "s",
    "core.gemm_wait_s": "s",
    "kernels.eval_s": "s",
    "kernels.eval_calls": "count",
    **{f"instrument.ops.{c}": "ops" for c in OP_CATEGORIES},
    "shard.group_build_s": "s",
    "shard.dispatch_s": "s",
    "shard.allreduce_s": "s",
    "shard.allreduce_calls": "count",
    "shard.allreduce_bytes": "bytes",
    "shard.mirror_s": "s",
    "shard.checkpoint_s": "s",
    "shard.checkpoints": "count",
    "shard.recoveries": "count",
    "shard.worker_busy_s.max": "s",
    "shard.worker_busy_s.min": "s",
    "serve.http_overhead_ms.p50": "ms",
    "serve.request_ms.p50": "ms",
    "serve.request_ms.p99": "ms",
    "serve.queue_ms.p50": "ms",
    "serve.queue_ms.p99": "ms",
    "serve.kernel_ms.p50": "ms",
    "serve.batch_requests.mean": "requests",
    "serve.batches": "count",
    "serve.failed_requests": "count",
    "serve.retries": "count",
    "serve.shed_requests": "count",
    "observe.trace_overhead_frac": "share",
    **{f"observe.model_ratio.{p}": "ratio" for p in MODEL_PHASES},
    "unattributed_frac": "share",
    "latency_p99_ms": "ms",
}


def _layer_medians(units: list[dict[str, float]]) -> dict[str, tuple[float, str]]:
    return {
        name: (median([u[name] for u in units]), LAYER_UNITS[name])
        for name in units[0]
    }


def _with_zero_layers(
    metrics: dict[str, tuple[float, str]]
) -> dict[str, tuple[float, str]]:
    """``metrics`` plus every layer that did not run on this workload, at
    0, in :data:`LAYER_UNITS` order."""
    return {
        name: metrics.get(name, (0.0, unit)) for name, unit in LAYER_UNITS.items()
    }


def workloads(
    fit_large: FitShape = FIT_LARGE_BATCH,
    fit_sharded: FitShape = FIT_SHARDED,
    serve: ServeShape = SERVE_HTTP,
) -> dict[str, Callable[[int, float, bool], Outcome]]:
    """``{name: run(seed, seconds, trace)}`` at the given shapes (the
    self-test passes tiny ones)."""
    return {
        "fit-large-batch": lambda s, t, tr: run_fit(fit_large, s, t, tr),
        "fit-sharded": lambda s, t, tr: run_fit(fit_sharded, s, t, tr),
        "serve-http": lambda s, t, tr: run_serve(serve, s, t, tr),
    }
