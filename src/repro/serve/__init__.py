"""``repro.serve`` — micro-batched prediction serving.

The training stack produces a fitted kernel machine; this package turns
it into a *persistent serving session* for concurrent traffic, reachable
in process or over the network, with per-request quality of service.

**Engine.**  A :class:`ModelServer` keeps the model's centers/weights
resident on a :class:`~repro.shard.ShardGroup` (built from a fitted
:class:`~repro.core.model.KernelModel`, or borrowed live from training)
and answers concurrent requests through a micro-batching queue:

- request threads call :meth:`~ModelServer.submit_request` (or the
  blocking :meth:`~ModelServer.predict_request`) with a typed
  :class:`PredictRequest` carrying priority, deadline and correlation
  id, or with a bare array (default QoS); the future resolves to a
  :class:`PredictResponse` with per-request timings
  (``queue_s``/``batch_s``) and run id — the one request type from the
  HTTP handler down to the dispatcher;
- a dispatcher thread coalesces the queue into one tick, runs it to
  completion and scatters per-request result rows back to the futures,
  one tick at a time.  A small tick of a group whose shards live in
  this process on host NumPy arrays (the thread transport's default)
  runs every shard's task on the dispatcher; any other tick is one
  fused ``map_allreduce`` round trip to the workers.  Either way the
  partials are summed by one collective;
- every response is **bit-identical** to what the request would get
  from a solo :func:`~repro.shard.sharded_predict` call (see
  :mod:`repro.serve.server` for why the tick evaluates per-request
  segments rather than one coalesced GEMM).

**Scheduling.**  Cohorts form priority-first (higher
``PredictRequest.priority`` rides the next tick first; equal priority
keeps FIFO order), and a request whose ``deadline_s`` expires while
queued is *shed*: its future fails with
:class:`~repro.exceptions.DeadlineExceeded` at cohort formation,
before any shard work is spent on it (``serve/shed_requests`` counts
them).

**Transports.**  :class:`~repro.serve.http.ServeHTTPServer`
(:mod:`repro.serve.http`) exposes a live engine over stdlib HTTP —
``POST /predict`` JSON in/out (float64 survives the JSON round trip
bitwise), ``GET /healthz`` (:meth:`~ModelServer.health`) and
``GET /metrics`` — and :class:`HttpClient` (:mod:`repro.serve.client`)
calls it over one persistent connection per calling thread (resent
once on a fresh connection if the server closed an idle one), raising
the exception types the engine raises in process.

**Failures.**  Each tick is attempted once: a tick that raises fails
every request it carries with that error (HTTP ``500``); a request
whose prediction is NaN or inf fails alone with
:class:`~repro.exceptions.ReproError` (HTTP ``500``).  Every admitted
request is counted exactly once, under ``serve/requests``,
``serve/shed_requests``, ``serve/abandoned_requests`` or
``serve/failed_requests``.

Latency is observable end to end: ``serve/{queue,batch,kernel,
scatter}`` spans are relayed to each submitting caller's tracers, and
the server's :class:`~repro.observe.MetricsRegistry` carries
run-ID-stamped ``serve/*`` histograms (p50/p95/p99 in
:meth:`~ModelServer.stats`).  ``benchmarks/bench_serve.py`` measures
throughput under closed-loop load.
"""

from repro.serve.api import PredictRequest, PredictResponse
from repro.serve.client import HttpClient
from repro.serve.http import ServeHTTPServer
from repro.serve.server import ModelServer, ServeOptions

__all__ = [
    "HttpClient",
    "ModelServer",
    "PredictRequest",
    "PredictResponse",
    "ServeHTTPServer",
    "ServeOptions",
]
