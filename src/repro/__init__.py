"""repro — a reproduction of *Kernel Machines That Adapt to GPUs for
Effective Large Batch Training* (Siyuan Ma & Mikhail Belkin, MLSys 2019).

The package implements the full EigenPro 2.0 system described in the paper:

- :mod:`repro.backend` — the pluggable array-backend layer every hot path
  dispatches through: NumPy (default) or Torch (CPU/CUDA, optional).
- :mod:`repro.kernels` — positive-definite kernel functions and blocked,
  memory-bounded kernel-matrix computations.
- :mod:`repro.linalg` — top-q eigensystem solvers and the Nyström extension
  used to build the EigenPro preconditioner.
- :mod:`repro.device` — the parallel-computational-resource abstraction
  ``(C_G, S_G)`` of the paper's Section 2, realised as an executable
  simulated GPU with an analytic timing model and a memory tracker.
- :mod:`repro.data` — synthetic dataset generators standing in for the
  paper's MNIST / TIMIT / SUSY / ImageNet-feature workloads, plus the exact
  preprocessing pipeline of Appendix A.
- :mod:`repro.core` — the paper's contribution: resource-adaptive kernel
  construction (Steps 1–3 of Section 3), the improved EigenPro iteration
  (Algorithm 1) and its analytic parameter selection.
- :mod:`repro.baselines` — plain kernel SGD, the original EigenPro 1.0,
  FALKON, Pegasos, an SMO SVM solver (LibSVM stand-in) and exact solves.
- :mod:`repro.experiments` — one harness per table/figure of the paper's
  evaluation section.

Quickstart::

    import numpy as np
    from repro import EigenPro2, GaussianKernel, titan_xp
    from repro.data import synthetic_mnist

    ds = synthetic_mnist(n_train=2000, n_test=500, seed=0)
    model = EigenPro2(kernel=GaussianKernel(bandwidth=5.0), device=titan_xp())
    model.fit(ds.x_train, ds.y_train, epochs=5)
    error = model.classification_error(ds.x_test, ds.y_test)

Backends
--------
The kernel substrate (pairwise distances, kernel profiles, blocked
matvecs, eigensolvers, training loops) runs on a pluggable
:class:`~repro.backend.ArrayBackend`.  The default is NumPy; an optional
Torch backend (CPU or CUDA) activates when torch is installed — pull it in
with the packaging extra ``pip install repro[torch]``.  Select a backend
per scope or process-wide::

    from repro.backend import use_backend, set_backend

    with use_backend("torch"):        # or "torch:cuda" for a GPU
        model.fit(ds.x_train, ds.y_train, epochs=5)

    set_backend("torch")              # every subsequent call

Requesting ``"torch"`` without torch installed raises
:class:`~repro.exceptions.BackendUnavailableError`; torch-dependent tests
skip instead of failing.

Working precision is a separate switch (the paper trains in float32 on
GPU; the CPU default is float64).  Float32 inputs are *not* silently
promoted, and an explicit scope overrides input dtypes entirely::

    from repro import use_precision

    with use_precision("float32"):
        model.fit(ds.x_train, ds.y_train, epochs=5)

Beyond the uniform tiers there is a **mixed** tier
(:data:`repro.config.MIXED_PRECISION`): kernel blocks and GEMMs — the
compute that dominates — run at float32 while the master weights, the
targets and every accumulation into them (the EigenPro correction, with
Kahan compensation on NumPy, and the sharded all-reduce combine) stay at
float64::

    with use_precision("mixed"):
        model.fit(ds.x_train, ds.y_train, epochs=5)   # fp32 compute,
                                                      # fp64 state

The tier contract, pinned by ``tests/test_backend_parity.py``: an
explicit ``float64`` scope is bitwise the ambient default; ``float32``
and ``mixed`` land within documented relative-error bounds of the
float64 trajectory, with mixed paying float32 compute but keeping
full-precision state.

Every radial kernel block — training steps and each block of the one
streamed matvec, :func:`repro.kernels.ops.kernel_matvec` — is formed
by the backends' one **fused** block former,
:meth:`repro.backend.ArrayBackend.fused_kernel_block`, or by the
matvec's once-per-call binding of the same ops: NumPy decomposes it to
the historical pooled-workspace ops (bitwise identical either way), the
Torch backend compiles the distance + profile chain with
``torch.compile``.

Operation counts recorded via :mod:`repro.instrument` are derived from
array shapes only, so cost-model validation (Table 1) is backend-,
precision- and fusion-invariant.

Sharding and transports
-----------------------
:mod:`repro.shard` executes the data-parallel multi-device scheme that
:mod:`repro.device.cluster` models analytically (the paper's Section-6
direction): centers and weights split contiguously across ``g`` executors,
each owning its own backend instance, with per-shard partial predictions
all-reduced each step.  :class:`~repro.shard.ShardedEigenPro2` trains the
exact EigenPro 2.0 iteration that way, and
:func:`repro.observe.compare_phases` (``python -m repro.experiments
observe-report``) judges the cluster cost model against a traced fit,
phase by phase::

    from repro.shard import ShardedEigenPro2

    with ShardedEigenPro2(kernel, n_shards=4) as trainer:
        trainer.fit(ds.x_train, ds.y_train, epochs=5)

*Where* the shards run is the **transport**
(:mod:`repro.shard.transport`), discovered by name through one registry
(:func:`repro.shard.transport.register_transport` /
:func:`repro.shard.available_transports` — register a
:class:`~repro.shard.ShardTransport` subclass and ``ShardGroup.build``,
the trainer, the ``observe-report`` experiment and the conformance suite
all see it).  The engine a build returns *is* the transport:
:class:`~repro.shard.ShardGroup` is another name for
:class:`~repro.shard.ShardTransport`.  ``transport="thread"`` (default) drives in-process worker threads
whose "network" is a host memcpy; ``transport="process"`` runs one
worker process per shard over ``multiprocessing.shared_memory``
center/weight blocks, paying a real IPC round-trip per collective step
— the cost the sharded trainer's block prefetch overlaps;
``transport="torchdist"`` makes each worker a rank of a
``torch.distributed`` process group so the per-step all-reduce is a
*real* collective — gloo over CPU tensors by default (runs anywhere
torch is installed, including CI), NCCL when ``shard_backends`` names
CUDA devices::

    with ShardedEigenPro2(kernel, n_shards=4, transport="process") as t:
        t.fit(ds.x_train, ds.y_train, epochs=5)

    # torch.distributed ranks: gloo on CPU ...
    with ShardedEigenPro2(kernel, n_shards=2, transport="torchdist") as t:
        t.fit(ds.x_train, ds.y_train, epochs=5)

    # ... and NCCL when the shard backends are CUDA devices.
    with ShardedEigenPro2(
        kernel,
        shard_backends=["torch:cuda:0", "torch:cuda:1"],
        transport="torchdist",
    ) as t:
        t.fit(ds.x_train, ds.y_train, epochs=5)

Every transport runs the same module-level task functions on the same
shard slices, so results are bitwise identical across transports and op
counts match the unsharded trainer exactly (pinned by
``tests/test_shard_transport_conformance.py``; fabrics that own the
reduction order, like gloo/NCCL, are bitwise up to their declared
``exact_collective_max_g``).  Mirror-back of updated weight rows is
asynchronous on every transport: thread shards adopt zero-copy weight
views, process/torchdist shards read the parent's direct shared-memory
writes — ordering is guaranteed by each worker's FIFO task queue, never
by a per-update barrier.  The cluster cost model carries a
per-transport link model
(:func:`repro.device.cluster.transport_interconnect` /
:func:`~repro.device.cluster.link_cost` — memcpy, IPC, gloo and NCCL
entries), so modelled allreduce time differs by fabric.  A worker
process dying mid-epoch raises
:class:`~repro.exceptions.ShardError` (no hang, shared-memory segments
and process groups always reclaimed); platforms without the needed
support keep ``transport="thread"`` (see
:func:`repro.shard.transport_available`, e.g.
``transport_available("process")``).

Checkpointing and elastic fault recovery
----------------------------------------
A sharded fit survives worker failure.  The trainer takes a lightweight
:class:`~repro.shard.ShardCheckpoint` every ``checkpoint_every`` steps
(and at every epoch start): the full weight matrix gathered through the
transport's host-visible surface, the shuffling RNG state, the
epoch/batch cursor and the op-meter totals — in memory by default, on
disk when ``checkpoint_dir`` is set.  When a shard fails mid-fit, the
trainer probes per-shard liveness
(:meth:`~repro.shard.ShardTransport.alive` — dead workers *reported*,
not rediscovered by the next task), tears the broken transport down,
rebuilds the group over the survivors (an elastic shrink to at least
``g - 1`` through the same transport registry), restores the last
checkpoint and resumes at its batch cursor, replaying only the steps
since the snapshot::

    with ShardedEigenPro2(
        kernel, n_shards=4, transport="process",
        checkpoint_every=25, max_recoveries=2,
    ) as t:
        t.fit(ds.x_train, ds.y_train, epochs=5)
    t.recovery_log_   # one RecoveryEvent per elastic shrink (empty if none)

Retries are bounded by ``max_recoveries``; once exhausted (or fewer
than ``min_shards`` would survive) the original ``ShardError``
propagates with the last checkpoint attached (``exc.checkpoint``) for
out-of-band resumption.  A recovered fit matches the failure-free run
up to the collective's association order over the shrunken plan
(1e-6-of-scale); :func:`repro.device.cluster.recovery_time` prices the
detour (re-shard + restore + replayed steps) in the analytic cost
model, which :func:`repro.observe.compare_phases` joins against the
measured ``recovery_log_`` as its ``recovery`` row.

Observability
-------------
:mod:`repro.instrument` counts *how much work* ran (shape-derived op
totals); :mod:`repro.observe` answers *where the milliseconds went*.
Push a :class:`~repro.observe.Tracer` onto the ambient stack and every
training phase — block formation, GEMM, correction, allreduce wait,
mirror-back, checkpoint, recovery — records nested wall-clock spans,
including worker-side spans relayed from shard threads/processes with
per-shard attribution::

    from repro.observe import (
        Tracer, trace_scope, export_perfetto, compare_phases,
    )

    tracer = Tracer()
    with trace_scope(tracer):
        trainer.fit(ds.x_train, ds.y_train, epochs=5)
    export_perfetto(tracer, "trace.json")   # chrome://tracing lanes
    report = compare_phases(tracer, g=4, link="process")

Tracing is strictly opt-in: with no active tracer, spans are near-free
no-ops, transport messages are byte-identical and every numeric result,
op count and RPC count is unchanged (pinned by the conformance suite).
A :class:`~repro.observe.MetricsRegistry` unifies op counts, span
durations and recovery events under one run-ID-stamped snapshot, and
:func:`repro.observe.compare_phases` joins measured span totals against
the analytic cost model per phase —
``python -m repro.experiments observe-report`` runs the whole loop.

Serving
-------
:mod:`repro.serve` turns a fitted model into a persistent serving
session for concurrent traffic.  A :class:`~repro.serve.ModelServer`
keeps the centers/weights resident on a shard group (built from a
fitted :class:`~repro.core.KernelModel`, or borrowed from training as
``ModelServer(group=group)``) and
micro-batches concurrent requests: a dispatcher tick coalesces every
in-flight request into one fused ``map_allreduce`` round-trip and
scatters per-request rows back to waiting futures — each response
bit-identical to a solo :func:`~repro.shard.sharded_predict` call::

    from repro.serve import ModelServer, PredictRequest

    with ModelServer(model, g=2, transport="thread") as server:
        future = server.submit_request(x_batch)   # concurrent-safe
        y = future.result().values                # == sharded_predict bits
        resp = server.predict_request(            # blocking, with QoS
            PredictRequest(rows=x_batch, priority=5, deadline_s=0.2)
        )
        resp.values, resp.queue_s, resp.batch_s
        server.stats()                            # p50/p95/p99 latencies

Requests carry *quality of service*: cohorts form priority-first (FIFO
within a priority), and a request whose ``deadline_s`` expires while
queued is shed — its future fails with
:class:`~repro.exceptions.DeadlineExceeded` before any shard work is
spent.  ``ServeOptions(batch_wait="adaptive")`` replaces the fixed
coalescing window with an EWMA arrival-rate controller
(:class:`~repro.serve.AdaptiveWindow`) bounded by
:class:`~repro.serve.WindowOptions`.  The engine is reachable over the
network through the stdlib HTTP adapter
(:class:`~repro.serve.ServeHTTPServer` — JSON in/out, float64 bitwise
across the wire) and its client (:class:`~repro.serve.HttpClient`)::

    from repro.serve import HttpClient, ServeHTTPServer

    with ModelServer(model, g=2) as engine:
        with ServeHTTPServer(engine) as http_srv:
            client = HttpClient(http_srv.url)
            y = client.predict_request(x_batch).values  # same bits

Per-request ``serve/{queue,batch,kernel,scatter}`` spans are relayed to
the submitting caller's tracers (the worker-span discipline), latencies
land in a run-ID-stamped :class:`~repro.observe.MetricsRegistry`
(including ``serve/window_s`` decisions and ``serve/shed_requests``),
and :func:`repro.device.cluster.serving_latency` prices the request
path — deadline shedding included — in the analytic cost model,
measured under closed-loop load by ``benchmarks/bench_serve.py`` and
reconciled by ``python -m repro.experiments serve-report``.
"""

from repro._version import __version__
from repro.exceptions import (
    BackendLinAlgError,
    BackendUnavailableError,
    ConfigurationError,
    ConvergenceError,
    DeadlineExceeded,
    DeviceMemoryError,
    NotFittedError,
    ReproError,
    ShardError,
)
from repro.backend import (
    ArrayBackend,
    NumpyBackend,
    TorchBackend,
    available_backends,
    get_backend,
    set_backend,
    use_backend,
)
from repro.config import (
    MIXED_PRECISION,
    Precision,
    get_precision,
    mixed_precision_active,
    set_precision,
    use_precision,
)
from repro.kernels import (
    CauchyKernel,
    GaussianKernel,
    Kernel,
    LaplacianKernel,
    PolynomialKernel,
)
from repro.device import (
    DeviceSpec,
    SimulatedDevice,
    ideal_parallel,
    ideal_sequential,
    titan_x,
    titan_xp,
    tesla_k40,
)
from repro.core import (
    AutoParameters,
    EigenPro2,
    KernelModel,
    NystromPreconditioner,
    critical_batch_size,
    max_device_batch_size,
    select_parameters,
    select_q,
)
from repro.serve import (
    HttpClient,
    ModelServer,
    PredictRequest,
    PredictResponse,
    ServeHTTPServer,
    ServeOptions,
    WindowOptions,
)
from repro.shard import (
    ProcessTransport,
    RecoveryEvent,
    ShardCheckpoint,
    ShardGroup,
    ShardPlan,
    ShardTransport,
    ShardedEigenPro2,
    ThreadTransport,
    TorchDistributedTransport,
    available_transports,
    register_transport,
    registered_transports,
)

__all__ = [
    "__version__",
    # exceptions
    "ReproError",
    "ConfigurationError",
    "ConvergenceError",
    "DeviceMemoryError",
    "NotFittedError",
    "BackendUnavailableError",
    "BackendLinAlgError",
    "ShardError",
    "DeadlineExceeded",
    # backends & precision
    "ArrayBackend",
    "NumpyBackend",
    "TorchBackend",
    "available_backends",
    "get_backend",
    "set_backend",
    "use_backend",
    "get_precision",
    "set_precision",
    "use_precision",
    "MIXED_PRECISION",
    "Precision",
    "mixed_precision_active",
    # kernels
    "Kernel",
    "GaussianKernel",
    "LaplacianKernel",
    "CauchyKernel",
    "PolynomialKernel",
    # device
    "DeviceSpec",
    "SimulatedDevice",
    "titan_xp",
    "titan_x",
    "tesla_k40",
    "ideal_parallel",
    "ideal_sequential",
    # sharding
    "ShardedEigenPro2",
    "ShardGroup",
    "ShardPlan",
    "ShardCheckpoint",
    "RecoveryEvent",
    "ShardTransport",
    "ThreadTransport",
    "ProcessTransport",
    "TorchDistributedTransport",
    "register_transport",
    "registered_transports",
    "available_transports",
    # serving
    "ModelServer",
    "ServeOptions",
    "PredictRequest",
    "PredictResponse",
    "WindowOptions",
    "ServeHTTPServer",
    "HttpClient",
    # core
    "EigenPro2",
    "KernelModel",
    "NystromPreconditioner",
    "AutoParameters",
    "critical_batch_size",
    "max_device_batch_size",
    "select_parameters",
    "select_q",
]
