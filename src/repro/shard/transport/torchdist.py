"""``torch.distributed`` shard transport — shards as process-group ranks.

The ROADMAP's "next transport step": the same
:class:`~repro.shard.transport.base.ShardTransport` contract as the
thread and process transports, but with the collective executed by a
*real* ``torch.distributed`` all-reduce on the workers — **gloo** over
CPU tensors (runs anywhere torch is installed, which is what makes this
transport exercisable by the CI conformance matrix), **NCCL** over CUDA
tensors when CUDA device backends are requested.  This is the
MLSYSIM-style step that lets the cluster cost model's gloo/NCCL link
entries (:data:`repro.device.cluster.TRANSPORT_INTERCONNECTS`) be
validated against measured collective timings instead of only simulated
ones.

Architecture
------------
Everything host-side is inherited from
:class:`~repro.shard.transport.process.ProcessTransport`: one worker
process per shard, shared-memory center/weight segments, pickle-over-pipe
RPC with parent-side FIFO threads (so ``map_async`` never blocks), direct
shared-memory mirror-back for NumPy workers, ``ShardError`` on worker
death, segments always unlinked.  This transport adds:

- **Process group membership.**  Each child's bootstrap joins a
  ``torch.distributed`` process group (rank = shard id) rendezvoused
  through a file store in a parent-owned temp directory; the serve-loop
  teardown calls ``destroy_process_group``.  ``GLOO_SOCKET_IFNAME``
  defaults to the loopback interface — all ranks live on one host.
- **Real collective.**  :meth:`TorchDistributedTransport.allreduce`
  ships each shard's partial back to its rank and runs one
  ``dist.all_reduce(SUM)`` across the group; rank 0 returns the reduced
  array and the *caller* records the shape-derived ``(g - 1) * payload``
  operations under the existing ``"allreduce"`` category — exactly where
  (and how much) the host-side
  :func:`~repro.shard.transport.base.allreduce_sum` records, so shard
  meters hold compute only on every transport.  A single rank
  short-circuits — no task, no ops — matching the cost model's ``g = 1``
  case.  At ``g <= 2`` the collective is bitwise-identical to the
  host-side shard-order sum (IEEE addition of one operand pair is
  commutative); beyond that the fabric picks the association order, so
  :attr:`exact_collective_max_g` is 2 and the conformance suite's
  bitwise tests stop there.
- **Fused forward + all-reduce.**  :meth:`map_allreduce` /
  :meth:`map_allreduce_async` replace the base host-combine path (the
  ``_launch_reduce`` hook) with :func:`_fused_collective_task`: each
  rank runs the forward task *and* its ``dist.all_reduce`` inside one
  RPC, so a sharded training step costs **two** round-trips
  (prefetched form, fused contract + all-reduce) instead of three — the
  RPC pins in the conformance suite.  Rank 0's reply carries the reduced array; the caller still
  records the ``(g - 1) * payload`` ``"allreduce"`` ops, and under
  ``use_precision("mixed")`` each rank upcasts its float32 partial to
  float64 before the collective, matching the host-side accumulate
  dtype bit for bit at ``g <= 2``.
- **Thread budget.**  Ranks inherit the process transport's per-worker
  BLAS thread budget; the bootstrap also applies it to torch's intra-op
  pool (``torch.set_num_threads``).
- **Start method.**  Always ``spawn`` by default: NCCL (and CUDA
  contexts generally) are unsupported across ``fork``, and gloo's
  threads are healthiest in a fresh interpreter.  Workers therefore only
  run module-level task functions — which is all the library submits.
- **Failure containment.**  A killed rank surfaces as a
  :class:`~repro.exceptions.ShardError` from its pipe (inherited); a
  rank stuck in a collective whose peer died gets a gloo error or the
  group timeout (``timeout_s``), never an unbounded hang, and
  ``close()`` terminates stragglers, unlinks the segments and removes
  the rendezvous directory — so the process group is always torn down.
  The liveness probe (``alive()``, inherited from the process
  executors) reports dead ranks without raising, which is what lets
  elastic recovery (:mod:`repro.shard.recovery`) shrink to the
  survivors: the broken group is closed, a *new* transport instance —
  with a fresh rendezvous directory and process group at world size
  ``g - 1`` — is built from the last checkpoint, and training resumes.

``torch`` is imported lazily and only in the children (availability is
probed with ``importlib.util.find_spec``), so registering this transport
costs the parent nothing when torch is absent.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import shutil
import tempfile
import weakref
from typing import Any, Sequence

import numpy as np

from repro.backend import ArrayBackend, NumpyBackend, get_backend, to_numpy
from repro.config import master_dtype
from repro.exceptions import ConfigurationError, ShardError
from repro.instrument import record_ops, span
from repro.shard.plan import ShardPlan
from repro.shard.transport.base import (
    PendingMap,
    PendingReduce,
    ShardTransport,
    ShardWorker,
)
from repro.shard.transport.process import ProcessTransport, _SegmentSpec, _WorkerSpec

__all__ = [
    "TorchDistributedTransport",
]


def _spec_wants_cuda(spec: Any) -> bool:
    return isinstance(spec, str) and "cuda" in spec


# ---------------------------------------------------------------------------
# Child-side hooks and tasks (module-level: picklable under spawn).
# ---------------------------------------------------------------------------


def _join_process_group(spec: _WorkerSpec) -> None:
    """Child bootstrap: join the transport's process group as this
    shard's rank (runs before the serve loop; blocks until every rank
    has joined or ``timeout_s`` elapses).  Torch's intra-op pool gets
    the same thread budget the worker already gave its OpenBLAS."""
    import datetime
    import os
    import sys

    import torch

    torch.set_num_threads(spec.blas_threads)

    # All ranks share one host; pin gloo to the loopback interface so it
    # never depends on the container's hostname resolution.  The
    # interface name is platform-specific ("lo" on Linux, "lo0" on the
    # BSDs/macOS); elsewhere leave gloo's own discovery in charge.
    loopback = {"linux": "lo", "darwin": "lo0"}.get(sys.platform)
    if loopback is not None:
        os.environ.setdefault("GLOO_SOCKET_IFNAME", loopback)
    if _spec_wants_cuda(spec.backend_spec):
        device = spec.backend_spec.split(":", 1)[1]  # "cuda" or "cuda:<i>"
        if ":" in device:
            torch.cuda.set_device(int(device.rsplit(":", 1)[-1]))
    import torch.distributed as dist

    dist.init_process_group(
        backend=spec.options["dist_backend"],
        init_method="file://" + spec.options["init_file"],
        rank=spec.shard_id,
        world_size=spec.options["world_size"],
        timeout=datetime.timedelta(seconds=spec.options["timeout_s"]),
    )


def _leave_process_group(spec: _WorkerSpec) -> None:
    """Child teardown: destroy the process group on serve-loop exit
    (including task-failure exits); a SIGKILLed rank's group dies with
    the process."""
    import torch.distributed as dist

    if dist.is_available() and dist.is_initialized():
        dist.destroy_process_group()


def _dist_allreduce_task(worker: ShardWorker, partial: np.ndarray) -> np.ndarray | None:
    """Run one ``all_reduce(SUM)`` over the group with this rank's
    partial; rank 0 returns the reduced array.  The collective's op
    charge is recorded by the *caller* (see
    :meth:`TorchDistributedTransport.allreduce`), not here: shard meters
    hold compute only on every transport, so per-shard accounting stays
    comparable across thread/process/torchdist.

    Under mixed precision (the task runs inside the submitter's
    re-established precision scope) the partial is lifted to
    :func:`~repro.config.master_dtype` (float64) *before* the
    collective, so the fabric's ring reduction carries the same
    precision as the host-side
    :func:`~repro.shard.transport.base.allreduce_sum`."""
    import torch
    import torch.distributed as dist

    arr = np.ascontiguousarray(partial)
    arr = arr.astype(master_dtype(arr.dtype), copy=False)
    if arr.size == 0:
        # Zero-row batch (an empty serving tick): every rank's partial is
        # empty, so the reduction is the empty array itself.  Skip the
        # fabric collective — backends need not support zero-element
        # tensors, and there are no bytes to move.
        return arr if dist.get_rank() == 0 else None
    device = getattr(worker.backend, "device", None)
    if device is not None and _spec_wants_cuda(str(device)):
        tensor = torch.as_tensor(arr, device=device)
    else:
        tensor = torch.from_numpy(arr)
    try:
        dist.all_reduce(tensor, op=dist.ReduceOp.SUM)
    except Exception as exc:
        # A peer rank died or the group timed out: a transport failure,
        # not a task bug — surface it as the transport's error type
        # (kept chain-free so it pickles back to the parent intact).
        raise ShardError(
            f"shard {worker.shard_id} collective failed (dead peer rank "
            f"or group timeout): {exc}"
        ) from None
    if dist.get_rank() != 0:
        return None
    return np.asarray(tensor.cpu().numpy())


def _fused_collective_task(
    worker: ShardWorker,
    fn: Any,
    args: tuple,
    kwargs: dict | None,
) -> np.ndarray | None:
    """Run ``fn(worker, *args, **kwargs)`` and all-reduce the partial it
    returns — one task, one RPC round-trip per rank and step, where the
    unfused path pays two (compute, then collective).  Rank 0 returns the
    reduced array, every other rank ``None``."""
    partial = fn(worker, *args, **(kwargs or {}))
    return _dist_allreduce_task(worker, np.asarray(to_numpy(partial)))


class _DistPendingReduce(PendingReduce):
    """Await side of the fused map + collective: every rank's task
    already all-reduced in-flight (see :func:`_fused_collective_task`),
    so awaiting only extracts rank 0's reduced array, relays the compute
    deltas, and records the caller-side shape-derived ``"allreduce"``
    charge — identical to the unfused path's accounting."""

    def result(self) -> Any:
        replies = self._pending.result()  # [reduced, None, ...] per rank
        out = np.asarray(replies[0])
        g = self._transport.g
        with span("allreduce", transport=self._transport.name, g=g, fused=True):
            record_ops("allreduce", (g - 1) * int(out.size))
        bk = self._bk if self._bk is not None else get_backend()
        return bk.asarray(out)


def _pull_weights_task(worker: ShardWorker) -> np.ndarray:
    return np.asarray(to_numpy(worker.weights)).copy()


def _set_rows_task(worker: ShardWorker, rows: np.ndarray) -> None:
    worker.weights = worker.backend.asarray(
        rows, dtype=worker.backend.dtype_of(worker.weights)
    )
    worker.weights_is_view = False


class TorchDistributedTransport(ProcessTransport):
    """Shard transport whose workers are ranks of a ``torch.distributed``
    process group (module docstring).

    Parameters
    ----------
    plan, centers, weights:
        As for :class:`~repro.shard.transport.process.ProcessTransport`.
    backends:
        Per-shard backend specs.  ``None`` / ``"numpy"`` runs NumPy
        workers whose collectives go through gloo over CPU tensors
        wrapped zero-copy from the partials — the configuration the CI
        conformance matrix pins bitwise against the thread transport.
        ``"torch:cpu"`` runs torch CPU workers (still gloo);
        ``["torch:cuda:0", "torch:cuda:1", ...]`` runs CUDA workers and
        selects NCCL.  Specs must be strings or ``None`` — backend
        instances cannot cross the process boundary.
    dist_backend:
        Process-group backend override; default ``"nccl"`` when every
        spec is CUDA, else ``"gloo"``.
    timeout_s:
        Process-group timeout: bounds rendezvous and any collective
        whose peer died (a clean error instead of a hang).
    start_method:
        Default ``"spawn"`` (NCCL and CUDA contexts do not survive
        ``fork``); ``"fork"`` is accepted for CPU-only local runs.
    """

    name = "torchdist"
    exact_collective_max_g = 2

    @classmethod
    def is_available(cls) -> bool:
        """True when torch (and with it ``torch.distributed``'s gloo
        backend on every supported platform) is installed.  Probed
        without importing torch, so calling this — e.g. from the
        transport registry — never pays torch's import cost or
        initializes its thread pools in the parent."""
        return importlib.util.find_spec("torch") is not None

    @classmethod
    def link_name(cls, backends: Any | None = None) -> str:
        specs = (
            backends
            if isinstance(backends, (list, tuple))
            else [backends]
        )
        return "nccl" if specs and all(_spec_wants_cuda(s) for s in specs) else "gloo"

    def __init__(
        self,
        plan: ShardPlan,
        centers: np.ndarray,
        weights: np.ndarray | None = None,
        backends: Sequence[str | ArrayBackend | None] | None = None,
        *,
        dist_backend: str | None = None,
        timeout_s: float = 60.0,
        start_method: str | None = None,
    ) -> None:
        if not self.is_available():
            raise ConfigurationError(
                "transport='torchdist' requires torch (pip install "
                "repro[torch]); available transports exclude it on this "
                "host"
            )
        self._dist_backend_override = dist_backend
        self._timeout_s = float(timeout_s)
        self._init_dir = tempfile.mkdtemp(prefix="repro-torchdist-")
        # Backstop mirroring the shared-memory finalizer: the rendezvous
        # directory never outlives the transport, even without close().
        self._init_dir_finalizer = weakref.finalize(
            self, shutil.rmtree, self._init_dir, ignore_errors=True
        )
        # The base constructor runs _validate_backends exactly once and
        # stores the normalized specs; _torch_workers/_dist_backend
        # derive from that single result.
        super().__init__(
            plan, centers, weights, backends, start_method=start_method
        )

    @property
    def _torch_workers(self) -> bool:
        """True when any worker holds a torch backend (weights are then
        device copies moved by tasks, not shared-memory writes)."""
        return any(spec is not None for spec in self._backend_specs)

    @property
    def _dist_backend(self) -> str:
        # link_name() returns exactly the dist backend names, so the
        # fabric the cost model charges is the one the group initializes.
        return self._dist_backend_override or self.link_name(
            self._backend_specs
        )

    # ------------------------------------------------------ subclass hooks
    def _validate_backends(
        self,
        backends: Sequence[str | ArrayBackend | None] | None,
        plan: ShardPlan,
    ) -> list[str | None]:
        specs: list[str | None] = []
        for spec in backends if backends is not None else [None] * plan.g:
            if spec is None or spec == "numpy" or isinstance(spec, NumpyBackend):
                specs.append(None)
            elif isinstance(spec, str) and spec.split(":", 1)[0] == "torch":
                specs.append(spec)
            else:
                raise ConfigurationError(
                    "the torchdist transport takes backend specs of "
                    "None, 'numpy', 'torch:cpu' or 'torch:cuda:<i>' "
                    f"(strings — instances cannot cross the process "
                    f"boundary); got {spec!r}"
                )
        if len(specs) != plan.g:
            raise ConfigurationError(
                f"plan has {plan.g} shards but {len(specs)} backend specs given"
            )
        return specs

    def _default_start_method(self) -> str:
        return "spawn"

    def _child_spec(
        self,
        shard_id: int,
        lo: int,
        hi: int,
        centers_spec: _SegmentSpec,
        weights_spec: _SegmentSpec | None,
    ) -> _WorkerSpec:
        spec = super()._child_spec(
            shard_id, lo, hi, centers_spec, weights_spec
        )
        return dataclasses.replace(
            spec,
            bootstrap=_join_process_group,
            teardown=_leave_process_group,
            options={
                "dist_backend": self._dist_backend,
                "init_file": self._init_dir + "/rendezvous",
                "world_size": self.plan.g,
                "timeout_s": self._timeout_s,
            },
        )

    # ----------------------------------------------------------- collective
    def allreduce(
        self, partials: Sequence[Any], bk: ArrayBackend | None = None
    ) -> Any:
        """Combine per-shard partials with one ``dist.all_reduce`` across
        the group: each rank receives its own partial over the task
        channel (one RPC per rank), the fabric reduces, rank 0 returns
        the result, and the caller's meters are charged the same
        shape-derived ``(g - 1) * payload`` as the host-side
        :func:`~repro.shard.transport.base.allreduce_sum`.  Single-rank
        groups short-circuit host-side — no task, no ``"allreduce"``
        ops."""
        if len(partials) != self.g:
            raise ConfigurationError(
                f"allreduce needs {self.g} partials, got {len(partials)}"
            )
        bk = bk if bk is not None else get_backend()
        if self.g == 1:
            return bk.asarray(np.array(to_numpy(partials[0]), copy=True))
        with span("allreduce", transport=self.name, g=self.g):
            futures = [
                ex.submit_metered(
                    _dist_allreduce_task, np.ascontiguousarray(to_numpy(p))
                )
                for ex, p in zip(self.executors, partials)
            ]
            results = PendingMap(futures).result()
            out = results[0]
            # Shape-derived charge on the caller's meters — identical to
            # allreduce_sum's, and kept off the shard meters so per-shard
            # accounting (compute only) stays comparable across transports.
            record_ops("allreduce", (self.g - 1) * int(np.asarray(out).size))
            return bk.asarray(out)

    def _launch_reduce(
        self,
        fn: Any,
        args: tuple,
        kwargs: dict,
        bk: ArrayBackend | None,
    ) -> PendingReduce:
        """Fused form of map + all-reduce: each rank runs ``fn`` *and*
        the ``dist.all_reduce`` inside a single task — one RPC round-trip
        per rank and step where the unfused path pays two (the sharded
        iteration drops from 3 round-trips to 2).  Single-rank groups
        keep the base path — no collective task, no ``"allreduce"`` ops,
        matching the cost model's ``g = 1`` short circuit."""
        if self.g == 1:
            return super()._launch_reduce(fn, args, kwargs, bk)
        pending = self._submit_all(_fused_collective_task, (fn, args, kwargs), {})
        return _DistPendingReduce(self, pending, bk)

    # -------------------------------------------------------------- weights
    # NumPy workers inherit the process transport's weight story wholesale:
    # shared-memory rows, direct-write mirror (zero tasks), segment
    # gather/scatter.  Torch-backed workers hold *device copies*, so every
    # weight movement must ride the task channel instead.
    def mirror_rows(
        self, global_idx: np.ndarray, rows: np.ndarray
    ) -> PendingMap | None:
        if not self._torch_workers:
            return super().mirror_rows(global_idx, rows)
        # Keep the shared segment authoritative for the parent, then push
        # rows to the device copies with the base class's queued push
        # (FIFO order makes this async-safe, as for thread device shards).
        super().mirror_rows(global_idx, rows)
        return ShardTransport.mirror_rows(self, global_idx, rows)

    def gather_weights(self) -> np.ndarray:
        if not self._torch_workers:
            return super().gather_weights()
        with span("gather", transport=self.name, g=self.g):
            return np.concatenate(self.map(_pull_weights_task), axis=0)

    def set_weights(self, weights: Any) -> None:
        weights_np = np.asarray(to_numpy(weights))
        super().set_weights(weights_np)
        if self._torch_workers:
            futures = [
                ex.submit(_set_rows_task, weights_np[sl])
                for ex, sl in zip(self.executors, self.plan.slices)
            ]
            for f in futures:
                f.result()

    # ------------------------------------------------------------ lifecycle
    def close(self) -> None:
        super().close()
        init_dir, self._init_dir = getattr(self, "_init_dir", None), None
        if init_dir is not None:
            shutil.rmtree(init_dir, ignore_errors=True)
        finalizer = getattr(self, "_init_dir_finalizer", None)
        if finalizer is not None:
            finalizer.detach()
