"""Executable multi-shard kernel engine — the paper's Section 6, for real.

"Going beyond that to 1e8 or more data points using multi-GPU setups is
the next natural step for kernel methods" (paper Section 6).
:mod:`repro.device.cluster` *models* that regime analytically: ``g``
devices each hold ``n/g`` centers, compute the batch-vs-shard kernel
block, and all-reduce the ``(m, l)`` batch predictions under an
alpha-beta network model.  This package *executes* the same scheme on
real array backends:

- :class:`~repro.shard.plan.ShardPlan` — the balanced contiguous
  partition of the ``n`` centers (and weight rows) into ``g`` shards;
- :mod:`repro.shard.transport` — the engine, separating *what a shard
  does* from *where it runs*: a
  :class:`~repro.shard.transport.ShardWorker` (the shard's arrays,
  private op meter, precomputed center norms and execution scopes) driven
  through a :class:`~repro.shard.transport.ShardTransport`, the one
  engine object (public name :class:`~repro.shard.ShardGroup`): build it
  with ``ShardGroup.build(..., transport=<any registered name>)``, run
  collective steps with ``map`` / ``map_async`` and combine partials
  with ``allreduce`` (communication metered separately under the
  ``"allreduce"`` category).  Three
  transports ship, discovered through one registry
  (:func:`~repro.shard.transport.register_transport` /
  :func:`~repro.shard.transport.available_transports`): ``"thread"``
  (in-process worker threads, zero-copy weight views, any backend per
  shard — ``torch:cuda:<i>`` included), ``"process"`` (one worker
  process per shard over ``multiprocessing.shared_memory``
  center/weight blocks, tasks shipped by pickle over per-shard pipes —
  a real IPC round-trip for the prefetch to hide) and ``"torchdist"``
  (the process architecture with every worker a rank of a
  ``torch.distributed`` process group, so the all-reduce is a *real*
  collective — gloo over CPU tensors anywhere torch is installed, NCCL
  when CUDA backends are requested:
  ``ShardedEigenPro2(transport="torchdist",
  shard_backends=["torch:cuda:0", "torch:cuda:1"])``);
- :func:`~repro.shard.ops.sharded_kernel_matvec` /
  :func:`~repro.shard.ops.sharded_predict` — the data-parallel streamed
  primitives mirroring :mod:`repro.kernels.ops`;
- :class:`~repro.shard.trainer.ShardedEigenPro2` — the EigenPro 2.0
  iteration (Algorithm 1) run data-parallel, numerically equivalent to
  the single-backend trainer and adapted, by default, to the
  :func:`repro.device.cluster.multi_gpu` aggregate device (with a
  per-transport link model via
  :func:`repro.device.cluster.transport_interconnect`).  While step
  ``t``'s partial predictions are all-reduced and its update applied
  on the caller thread, every shard worker is already forming step
  ``t+1``'s kernel block; FIFO worker order runs contraction ``t``
  before formation ``t+1``, so one workspace buffer per shard suffices
  and the block never crosses the transport.  The EigenPro correction
  runs on the shard(s) holding the subsample's rows, ahead of their
  next contraction, so ``Phi`` never crosses it either.

Mirror-back of updated weight rows is *asynchronous* on every transport:
NumPy thread shards see updates through zero-copy views, device-copy
thread shards get a row push queued on their FIFO worker (drained at the
next barrier, never awaited per update), and process shards read the
rows straight out of shared memory after the parent's direct write.
FIFO worker order — the transport contract — is what makes this sound:
a weight-reading contraction is always queued after the mirror of the
update it must observe.

Checkpointing and elastic fault recovery
----------------------------------------
A worker failure is never the end of the fit.  Detection came first:
a killed worker process, dead rank or failed collective surfaces as a
clean :class:`~repro.exceptions.ShardError` naming the shard — never a
hang (the torchdist group timeout bounds dead-peer collectives).  On
top of that, :mod:`repro.shard.recovery` provides the restore path and
:class:`~repro.shard.trainer.ShardedEigenPro2` the policy:

- every ``checkpoint_every`` steps (and at every epoch start) the
  trainer takes a :class:`~repro.shard.recovery.ShardCheckpoint` — the
  full weight matrix via
  :meth:`~repro.shard.transport.ShardTransport.gather_weights` (a host
  memcpy on shared-memory transports), the shuffling RNG state, the
  epoch/batch cursor and the op-meter totals; in memory by default,
  mirrored to disk when ``checkpoint_dir`` is set;
- :meth:`~repro.shard.transport.ShardTransport.alive` probes per-shard
  liveness without raising, so dead workers are *reported*, not
  discovered by the next task's failure;
- on a ``ShardError`` inside the epoch loop the trainer tears the
  broken transport down, rebuilds the group over the surviving shard
  count (always at least one fewer — an *elastic shrink* through the
  same transport registry), restores the checkpoint's weights and
  resumes at its batch cursor, replaying only the steps since the last
  snapshot.  Retries are bounded by ``max_recoveries``; when the budget
  is exhausted the original ``ShardError`` propagates with the last
  checkpoint attached (``exc.checkpoint``) for out-of-band resumption.

Replayed steps re-run the same batch blocks from the restored weights,
so a recovered fit matches the failure-free run up to the collective's
association order over the shrunken plan (1e-6-of-scale, the same bound
the conformance suite documents for resharded runs);
:func:`repro.device.cluster.recovery_time` prices the whole detour
(re-shard + restore + replay) in the analytic cost model.

Because per-shard op counts are shape-derived and the shards tile the
centers, aggregate counts equal the unsharded counts exactly, and every
transport executes the *same task functions*, so results are bitwise
identical across transports (``tests/test_shard_parity.py``,
``tests/test_shard_transport_conformance.py``).
:func:`repro.observe.compare_phases` (``python -m repro.experiments
observe-report``) closes the MLSYSIM-style loop per transport: a traced
fit on this engine is joined phase by phase against the cluster cost
model, with the transport's link model pricing the all-reduce.

Observability
-------------
The whole sharded stack is span-instrumented through
:mod:`repro.observe`: under an active
:class:`~repro.observe.Tracer` (``with trace_scope(tracer):``) the
trainer brackets every phase (``epoch``, ``form_block``/``gemm``/
``correction`` waits, ``checkpoint``, ``scatter_state`` and the
``recovery/*`` detour), the transport brackets every collective
(``allreduce``, ``mirror``, ``gather``), and each *worker* records its
own ``form_block``/``gemm`` spans, and the subsample's holders their
``correction`` spans — stamped ``shard=<id>`` and relayed
back on the existing metered-reply path with the op-count deltas
(:meth:`repro.instrument.Telemetry.relay`).  Export per-shard timelines with
:func:`~repro.observe.export_perfetto` and join measured span totals
against the cluster cost model with
:func:`~repro.observe.compare_phases`.  Tracing is opt-in and captured
ambiently at submit time: with no tracer active, transport messages are
byte-identical to the untraced build and RPC/op counts are unchanged
(the conformance suite runs untraced and pins this).  Note the
``mirror`` span is transport-conditional — NumPy thread shards adopt
zero-copy weight views, so nothing is mirrored and no span is emitted.

Serving
-------
A live group doubles as the compute fabric of the micro-batched
prediction server: ``repro.serve.ModelServer(group=group)`` starts a
persistent session whose dispatcher coalesces concurrent
:meth:`~repro.serve.ModelServer.submit_request` calls into one fused
``map_allreduce`` tick — one task round-trip plus one collective for
the whole batch — and scatters per-request rows back to the callers'
futures, each bitwise-equal to a solo
:func:`~repro.shard.ops.sharded_predict` call.  The server *borrows*
the group: closing the server drains in-flight requests but leaves the
group open for training or another session.  Lifecycle is a transport
contract: :meth:`~repro.shard.transport.ShardTransport.close` is
idempotent, groups are context managers, and any submission — task,
weight gather or mirror — after close raises a clean
:class:`~repro.exceptions.ShardError` on every transport (the
conformance suite pins this), so a serving session can never wedge on
a torn-down fabric.

Example
-------
>>> import numpy as np
>>> from repro.kernels import GaussianKernel
>>> from repro.shard import ShardGroup, sharded_predict
>>> rng = np.random.default_rng(0)
>>> centers, w = rng.standard_normal((100, 4)), rng.standard_normal(100)
>>> kernel = GaussianKernel(bandwidth=2.0)
>>> with ShardGroup.build(centers, w, g=4, kernel=kernel) as group:
...     f = sharded_predict(group, centers[:10])
>>> f.shape
(10,)
"""

from repro.shard.group import (
    PendingMap,
    PendingReduce,
    ShardExecutor,
    ShardGroup,
    allreduce_sum,
)
from repro.shard.ops import sharded_kernel_matvec, sharded_predict
from repro.shard.plan import ShardPlan
from repro.shard.recovery import RecoveryEvent, ShardCheckpoint
from repro.shard.trainer import ShardedEigenPro2
from repro.shard.transport import (
    ProcessTransport,
    ShardTransport,
    ShardWorker,
    ThreadTransport,
    TorchDistributedTransport,
    available_transports,
    register_transport,
    registered_transports,
    resolve_transport,
    transport_available,
    unregister_transport,
)

__all__ = [
    "PendingMap",
    "PendingReduce",
    "ProcessTransport",
    "RecoveryEvent",
    "ShardCheckpoint",
    "ShardExecutor",
    "ShardGroup",
    "ShardPlan",
    "ShardTransport",
    "ShardWorker",
    "ShardedEigenPro2",
    "ThreadTransport",
    "TorchDistributedTransport",
    "allreduce_sum",
    "available_transports",
    "register_transport",
    "registered_transports",
    "resolve_transport",
    "sharded_kernel_matvec",
    "sharded_predict",
    "transport_available",
    "unregister_transport",
]
