"""Process-backed shard transport — shards as worker *processes*.

Where the thread transport's "network" is a host memcpy, this transport
pays a real inter-process round-trip per task (pickle over a duplex
pipe), which is what lets the sharded trainer's prefetch hide a genuine
communication cost — the step from modelled Section-6 clusters toward
executors with an actual interconnect.

Architecture
------------
- **Shared-memory arrays.**  The full center matrix and (optionally) the
  full weight matrix live in :mod:`multiprocessing.shared_memory`
  segments created by the parent.  Each child attaches the segments and
  takes its shard's contiguous row slice as a zero-copy NumPy view, so
  startup ships no array payloads and the parent keeps host-visible
  views of every shard's rows.
- **One RPC channel per shard.**  Each shard gets a child process
  running a recv→execute→send loop and, in the parent, a dedicated
  single-thread pool that performs the send/recv round-trip.  In-flight
  tasks queue in the parent thread's FIFO (never in the pipe), so the
  per-worker FIFO ordering contract of
  :class:`~repro.shard.transport.base.ShardTransport` holds and
  ``map_async`` never blocks on pipe capacity.  Tasks and results are
  pickled: submitted callables must be module-level functions (all the
  library's tasks are).
- **Weight rows in place.**  Because the weight rows live in shared
  memory, the parent's executors hold views of them, and the one weight
  rule of :mod:`repro.shard.transport.base` (the caller writes and reads
  rows in place) needs no task and no IPC; the next task's send/recv is
  the inter-process happens-before edge.
- **Failure containment.**  A worker that dies mid-task (killed, OOM,
  crash) surfaces as a :class:`~repro.exceptions.ShardError` naming the
  shard — never a hang — and the transport stays closeable: ``close()``
  terminates stragglers and always unlinks the shared-memory segments
  (a ``weakref.finalize`` backstops segment cleanup at interpreter
  exit).

- **BLAS thread budget.**  Each worker process runs its OpenBLAS with
  ``max(1, usable_cpus // (g + 1))`` threads (usable CPUs from the
  parent's affinity mask; ``+ 1`` leaves room for the parent, which
  unpickles the replies, sums the partial predictions and applies the
  coordinate update while the workers form the next block; the
  EigenPro correction runs on the worker holding the subsample's rows,
  inside its budget — see :mod:`repro.shard.trainer`).  An
  ``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` in the parent's
  environment wins.  The parent computes the budget
  (:attr:`ProcessTransport.worker_blas_threads`) and ships it in the
  worker spec; the child applies it with
  :func:`repro.backend.set_blas_threads` before it attaches anything, so
  fork and spawn children behave the same.  Without it ``g`` full-width
  OpenBLAS pools share the same cores: on the ``fit-sharded`` benchmark
  (g=2, a 2-vCPU host) the budget cut the median fit time from ~6.7 s to
  ~4.4 s.  The parent keeps its own thread count — the setting is per
  process, and a cap there would also slow its setup ``eigh`` and its
  predicts (see :mod:`repro.backend`).

Availability: requires :mod:`multiprocessing.shared_memory` and a
``fork`` start method (the default here; ``spawn`` is accepted via
``start_method=`` for platforms that need it, with the stricter
requirement that every submitted task live in an importable module).
Gate tests with :meth:`ProcessTransport.is_available`.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import traceback
import weakref
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Callable, Sequence

import numpy as np

from repro.backend import ArrayBackend, NumpyBackend, set_blas_threads
from repro.backend.threads import usable_cpus
from repro.config import current_precision
from repro.exceptions import ConfigurationError, ShardError
from repro.instrument import capture
from repro.shard.plan import ShardPlan
from repro.shard.transport.base import ShardTransport, ShardWorker

__all__ = [
    "ProcessShardExecutor",
    "ProcessTransport",
]

_SHUTDOWN = None  # sentinel message ending a worker's loop

#: Environment variables whose explicit thread count overrides the
#: computed worker budget, in the order OpenBLAS itself reads them.
_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _worker_blas_budget(g: int) -> int:
    """BLAS threads for each of ``g`` worker processes (module
    docstring): an explicit ``OPENBLAS_NUM_THREADS`` / ``OMP_NUM_THREADS``
    wins, else the usable CPUs split over the workers plus the parent."""
    for name in _THREAD_ENV:
        try:
            n = int(os.environ.get(name, ""))
        except ValueError:
            continue
        if n >= 1:
            return n
    return max(1, usable_cpus() // (g + 1))


@dataclass(frozen=True)
class _SegmentSpec:
    """How a child attaches one shared array: segment name + layout."""

    shm_name: str
    shape: tuple[int, ...]
    dtype: str


@dataclass(frozen=True)
class _WorkerSpec:
    """Everything a child needs to build its :class:`ShardWorker`."""

    shard_id: int
    lo: int
    hi: int
    centers: _SegmentSpec
    weights: _SegmentSpec | None
    #: BLAS thread count the child sets before serving (module docstring).
    blas_threads: int


def _attach_segment(
    spec: _SegmentSpec,
) -> tuple[shared_memory.SharedMemory, np.ndarray]:
    # Every start method shares the parent's resource tracker, whose
    # registry is a set: the attach's duplicate register is harmless, and
    # the parent's unlink at close() is the one unregister.
    shm = shared_memory.SharedMemory(name=spec.shm_name)
    view = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=shm.buf)
    return shm, view


#: Shared-memory segments this worker process attached for pushed state
#: (:class:`_SharedArray`); closed when its serve loop ends.
_STATE_SEGMENTS: list[shared_memory.SharedMemory] = []


def _attach_state_array(spec: _SegmentSpec) -> np.ndarray:
    """Child side of :class:`_SharedArray`: the pickled handle unpickles
    into a view of the parent's segment."""
    shm, view = _attach_segment(spec)
    _STATE_SEGMENTS.append(shm)
    return view


@dataclass(frozen=True)
class _SharedArray:
    """A NumPy array pushed as worker state through shared memory: it
    pickles as the segment's name and layout, and unpickles in the child
    as a view of the segment (:meth:`ProcessTransport.scatter_state_items`)."""

    spec: _SegmentSpec

    def __reduce__(self) -> tuple[Any, tuple[Any, ...]]:
        return _attach_state_array, (self.spec,)


def _dump_exception(exc: BaseException) -> tuple[str, Any]:
    """Best-effort picklable form of a worker-side exception."""
    try:
        payload = pickle.dumps(exc)
        pickle.loads(payload)  # some exceptions pickle but fail to rebuild
        return "pickled", payload
    except Exception:
        return "text", "".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        )


def _worker_main(spec: _WorkerSpec, conn: Any) -> None:
    """Child process entry point: attach shared arrays, serve tasks."""
    segments: list[shared_memory.SharedMemory] = []
    try:
        # A forked child inherits the forking thread's pooled block
        # workspace (buffers *and* high-water mark); this worker's scratch
        # accounting must start from zero.
        from repro.kernels.ops import block_workspace

        block_workspace().reset()
        set_blas_threads(spec.blas_threads)
        shm_c, centers_all = _attach_segment(spec.centers)
        segments.append(shm_c)
        weights = None
        if spec.weights is not None:
            shm_w, weights_all = _attach_segment(spec.weights)
            segments.append(shm_w)
            weights = weights_all[spec.lo : spec.hi]
        worker = ShardWorker(
            spec.shard_id,
            NumpyBackend(),
            centers_all[spec.lo : spec.hi],
            weights,
        )
        while True:
            try:
                msg = conn.recv()
            except EOFError:
                break
            if msg is _SHUTDOWN:
                break
            fn, args, kwargs, precision, trace = msg
            try:
                # ``(result, delta)`` untraced, ``(result, delta, spans)``
                # when the parent had tracing enabled at submit time; the
                # stats tuple always rides last, so the parent parses the
                # reply the same way in both shapes.
                metered = worker.run_metered(
                    fn, args, kwargs, precision, trace
                )
                reply = (
                    "ok",
                    *metered,
                    (worker.meter.as_dict(), worker.workspace_peak),
                )
            except (KeyboardInterrupt, SystemExit):
                # An interrupt aimed at the process group must end the
                # serve loop, not be relayed as a task failure — otherwise
                # Ctrl-C leaves children behind, still serving.  The
                # ``finally`` below still runs the segment cleanup; the
                # parent sees EOF and raises ShardError.
                raise
            except BaseException as exc:  # noqa: BLE001 - relayed to parent
                reply = (
                    "err",
                    _dump_exception(exc),
                    (worker.meter.as_dict(), worker.workspace_peak),
                )
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):
                break
    finally:
        try:
            conn.close()
        except Exception:
            pass
        # Views must be dropped before the segments can be closed; any of
        # these names may be unbound when startup itself failed.
        try:
            del weights
        except NameError:
            pass
        try:
            del worker
        except NameError:
            pass
        try:
            del centers_all
        except NameError:
            pass
        try:
            del weights_all
        except NameError:
            pass
        segments += _STATE_SEGMENTS
        for shm in segments:
            try:
                shm.close()
            except BufferError:  # pragma: no cover - exported view leak
                pass


class ProcessShardExecutor:
    """Parent-side handle of one worker process.

    Exposes the same executor surface as the thread transport's
    :class:`~repro.shard.transport.thread.ShardExecutor` — ``submit`` /
    ``submit_metered`` with FIFO ordering, geometry and accounting
    attributes — but the shard's arithmetic runs in the child.
    ``centers`` and ``weights`` here are the parent's shared-memory views
    of the child's rows (writes to ``weights`` are how the transport
    mirrors updates); ``workspace_peak`` and the op-count snapshot are
    refreshed from every task reply.
    """

    def __init__(
        self,
        shard_id: int,
        process: Any,
        conn: Any,
        centers: np.ndarray,
        weights: np.ndarray | None,
    ) -> None:
        self.shard_id = int(shard_id)
        self.process = process
        self.backend: ArrayBackend = NumpyBackend()
        self.centers = centers
        self.weights = weights
        #: The child holds shared rows, not a view of the caller's weight
        #: array — mirror-back is a (direct) write, not the identity.
        self.weights_is_view = False
        self.workspace_peak = 0
        #: Completed RPC round-trips (task replies received).  The
        #: conformance suite uses this to assert that mirror-back does
        #: *not* ride the task channel.
        self.rpc_count = 0
        self._op_counts: dict[str, int] = {}
        self._conn = conn
        self._dead: str | None = None
        self._pool: ThreadPoolExecutor | None = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"repro-shard-rpc-{shard_id}"
        )

    # ------------------------------------------------------------- geometry
    @property
    def n_centers(self) -> int:
        return self.centers.shape[0]

    @property
    def resident_scalars(self) -> int:
        scalars = self.centers.shape[0] * self.centers.shape[1]
        if self.weights is not None:
            w = self.weights
            scalars += w.shape[0] * (w.shape[1] if w.ndim == 2 else 1)
        return int(scalars)

    # ------------------------------------------------------------ execution
    def _require_open(self) -> ThreadPoolExecutor:
        if self._pool is None:
            raise ShardError(
                f"shard {self.shard_id} executor is closed and can no "
                "longer serve tasks"
            )
        return self._pool

    def _rpc_metered(
        self,
        fn: Callable[..., Any],
        args: tuple,
        kwargs: dict,
        precision: np.dtype | None,
        trace: bool = False,
    ) -> tuple[Any, ...]:
        """One task round-trip; runs on this executor's dedicated parent
        thread, so the pipe carries at most one in-flight task and FIFO
        order is the thread pool's queue order.  Returns ``(result,
        op_delta)``, or ``(result, op_delta, spans)`` when ``trace`` —
        the worker-side span payloads ride the same reply as the delta,
        never an extra RPC."""
        if self._dead is not None:
            raise ShardError(
                f"shard {self.shard_id} worker is unavailable: {self._dead}"
            )
        try:
            self._conn.send((fn, args, kwargs, precision, trace))
            reply = self._conn.recv()
        except (EOFError, OSError, BrokenPipeError) as exc:
            self._dead = (
                f"worker process died (exit code {self.process.exitcode})"
            )
            raise ShardError(f"shard {self.shard_id} {self._dead}") from exc
        kind = reply[0]
        stats = reply[-1]
        self._op_counts, self.workspace_peak = stats
        self.rpc_count += 1
        if kind == "err":
            form, body = reply[1]
            if form == "pickled":
                raise pickle.loads(body)
            raise ShardError(
                f"shard {self.shard_id} task failed in worker:\n{body}"
            )
        # ("ok", result, delta[, spans], stats) — everything between the
        # kind tag and the trailing stats is the metered payload.
        return tuple(reply[1:-1])

    def submit(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Future:
        """Queue ``fn(worker, *args, **kwargs)`` for the child; the
        future resolves to the task's result."""
        pool = self._require_open()
        precision = current_precision()
        return pool.submit(
            lambda: self._rpc_metered(fn, args, kwargs, precision)[0]
        )

    def submit_metered(
        self, fn: Callable[..., Any], *args: Any, **kwargs: Any
    ) -> Future:
        """Like :meth:`submit`, but the future resolves to
        ``(result, op_delta)`` with the delta captured in the child —
        plus the child-side spans when the caller has tracing enabled
        (captured here, next to the ambient precision)."""
        pool = self._require_open()
        precision = current_precision()
        return pool.submit(
            self._rpc_metered, fn, args, kwargs, precision, capture().tracing
        )

    # ------------------------------------------------------------- liveness
    def alive(self) -> bool:
        """Liveness probe: ``True`` while the worker process can serve
        tasks.  Unlike a task submission this never raises — a dead
        worker is *reported* (and latched on the executor so later
        submissions fail fast) instead of surfacing as a first-touch
        :class:`~repro.exceptions.ShardError`."""
        if self._dead is not None or self._pool is None:
            return False
        if not self.process.is_alive():
            self._dead = (
                f"worker process died (exit code {self.process.exitcode})"
            )
            return False
        return True

    # ----------------------------------------------------------- accounting
    def op_counts_snapshot(self) -> dict[str, int]:
        """Child meter totals as of the last completed task reply."""
        return dict(self._op_counts)

    # ------------------------------------------------------------ lifecycle
    def _shutdown_rpc(self) -> None:
        if self._dead is None:
            try:
                self._conn.send(_SHUTDOWN)
            except (OSError, BrokenPipeError):
                pass

    def close(self, timeout: float = 10.0) -> None:
        """Queue an orderly shutdown behind pending tasks, then join
        (terminating the child if it does not exit in time).

        The child is terminated *before* the RPC pool is joined: killing
        it EOFs the pipe, which unblocks any RPC thread stuck in
        ``recv()`` on a wedged worker — otherwise the pool join could
        wait forever on that thread.
        """
        if self._pool is None:
            return
        pool, self._pool = self._pool, None
        try:
            pool.submit(self._shutdown_rpc).result(timeout=timeout)
        except Exception:
            pass
        self.process.join(timeout=timeout)
        if self.process.is_alive():  # pragma: no cover - stuck worker
            self.process.terminate()
            self.process.join(timeout=timeout)
        pool.shutdown(wait=True)
        try:
            self._conn.close()
        except Exception:
            pass


def _release_segments(names: Sequence[str]) -> None:
    """Close + unlink shared segments by name (idempotent backstop)."""
    for name in names:
        try:
            shm = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            continue
        try:
            shm.close()
        finally:
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - raced unlink
                pass


class ProcessTransport(ShardTransport):
    """Shard transport running every shard in a dedicated child process
    over shared-memory center/weight blocks (module docstring).

    Parameters
    ----------
    plan:
        The shard plan; one worker process is spawned per shard.
    centers, weights:
        Full host arrays, copied once into shared memory.
    backends:
        Per-shard backend specs.  Only NumPy is supported in workers
        (``None``, ``"numpy"`` or a :class:`~repro.backend.NumpyBackend`
        instance — each child builds its own fresh instance); device
        backends belong to the thread transport.
    start_method:
        :mod:`multiprocessing` start method; default ``"fork"`` when
        available, else ``"spawn"``.
    """

    name = "process"

    @classmethod
    def is_available(cls) -> bool:
        """True when this platform supports the process transport's
        default configuration: POSIX shared memory plus a fork-safe
        start method (fork keeps arbitrary module-level task functions
        unpicklable-import free and is what the test suite exercises)."""
        try:
            return "fork" in multiprocessing.get_all_start_methods()
        except Exception:  # pragma: no cover - exotic platforms
            return False

    def __init__(
        self,
        plan: ShardPlan,
        centers: np.ndarray,
        weights: np.ndarray | None = None,
        backends: Sequence[str | ArrayBackend | None] | None = None,
        *,
        start_method: str | None = None,
    ) -> None:
        for spec in backends or []:
            if spec is None or spec == "numpy" or isinstance(spec, NumpyBackend):
                continue
            raise ConfigurationError(
                "the process transport runs NumPy workers only; got "
                f"backend spec {spec!r} (use transport='thread' for "
                "device backends)"
            )
        if start_method is None:
            start_method = "fork" if self.is_available() else "spawn"
        ctx = multiprocessing.get_context(start_method)
        self.plan = plan
        self.worker_blas_threads = _worker_blas_budget(plan.g)

        # Validate before any shared-memory segment exists: a rejected
        # configuration must not leave an orphaned segment behind.
        centers = np.ascontiguousarray(centers)
        if weights is not None:
            weights = np.ascontiguousarray(weights)
            if weights.shape[0] != plan.n:
                raise ConfigurationError(
                    f"weights has {weights.shape[0]} rows, plan expects "
                    f"{plan.n}"
                )
        self._segments: list[shared_memory.SharedMemory] = []
        #: Names of every segment this transport created, for the
        #: interpreter-exit backstop (grows with pushed state arrays).
        self._segment_names: list[str] = []
        self._centers_view: np.ndarray | None = None
        self._weights_view: np.ndarray | None = None
        self.executors: list[ProcessShardExecutor] = []
        try:
            centers_spec, self._centers_view = self._new_segment(centers)
            weights_spec = None
            if weights is not None:
                weights_spec, self._weights_view = self._new_segment(weights)
            self._finalizer = weakref.finalize(
                self, _release_segments, self._segment_names
            )
            for i, (lo, hi) in enumerate(
                zip(plan.bounds, plan.bounds[1:])
            ):
                parent_conn, child_conn = ctx.Pipe(duplex=True)
                spec = _WorkerSpec(
                    shard_id=i,
                    lo=int(lo),
                    hi=int(hi),
                    centers=centers_spec,
                    weights=weights_spec,
                    blas_threads=self.worker_blas_threads,
                )
                proc = ctx.Process(
                    target=_worker_main,
                    args=(spec, child_conn),
                    name=f"repro-shard-{i}",
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                self.executors.append(
                    ProcessShardExecutor(
                        i,
                        proc,
                        parent_conn,
                        self._centers_view[lo:hi],
                        None
                        if self._weights_view is None
                        else self._weights_view[lo:hi],
                    )
                )
        except BaseException:
            self.close()
            raise

    def _new_segment(
        self, source: np.ndarray
    ) -> tuple[_SegmentSpec, np.ndarray]:
        shm = shared_memory.SharedMemory(
            create=True, size=max(int(source.nbytes), 1)
        )
        self._segments.append(shm)
        self._segment_names.append(shm.name)
        view = np.ndarray(source.shape, dtype=source.dtype, buffer=shm.buf)
        view[...] = source
        return (
            _SegmentSpec(
                shm_name=shm.name,
                shape=tuple(source.shape),
                dtype=str(source.dtype),
            ),
            view,
        )

    # ----------------------------------------------------------- state push
    def scatter_state_items(self, items: Sequence[dict[str, Any]]) -> None:
        """As :meth:`ShardTransport.scatter_state_items`, but every NumPy
        array among the values is copied once into a shared-memory
        segment of its own and reaches the worker as a view of it: the
        setup task pickles segment names, not array payloads (a worker's
        rows of the ``(s, q)`` eigenvectors are megabytes).  The
        segments live until :meth:`close`."""
        self._require_serving()
        super().scatter_state_items([
            {key: self._share(value) for key, value in shard_items.items()}
            for shard_items in items
        ])

    def _share(self, value: Any) -> Any:
        if not isinstance(value, np.ndarray) or value.dtype.hasobject:
            return value
        spec, _ = self._new_segment(np.ascontiguousarray(value))
        return _SharedArray(spec)

    # ----------------------------------------------------------- accounting
    def op_counts(self) -> dict[str, int]:
        total: dict[str, int] = {}
        for ex in self.executors:
            for category, ops in ex.op_counts_snapshot().items():
                total[category] = total.get(category, 0) + ops
        return total

    # ------------------------------------------------------------ lifecycle
    def close(self) -> None:
        # Latch first: a racing submit must get a clean ShardError, never
        # a direct write into a segment about to be unlinked.
        self._closed = True
        executors = list(getattr(self, "executors", []))
        if len(executors) > 1:
            # Fan the shutdown/join out across executors: each close can
            # wait up to its timeout on a wedged worker, and paying that
            # serially makes closing a g=8 group take up to ~g× one
            # timeout.  Concurrent closes are independent (one process +
            # one RPC pool each), so total close time is bounded by the
            # slowest single executor.
            with ThreadPoolExecutor(
                max_workers=len(executors),
                thread_name_prefix="repro-shard-close",
            ) as pool:
                for f in [pool.submit(ex.close) for ex in executors]:
                    try:
                        f.result()
                    except Exception:  # pragma: no cover - best effort
                        pass
        elif executors:
            executors[0].close()
        # Drop parent views before closing the mappings they alias.
        self._centers_view = None
        self._weights_view = None
        for ex in getattr(self, "executors", []):
            ex.centers = None
            ex.weights = None
        segments, self._segments = self._segments, []
        for shm in segments:
            try:
                shm.close()
            except BufferError:  # pragma: no cover - leaked external view
                pass
            try:
                shm.unlink()
            except FileNotFoundError:
                pass
        if getattr(self, "_finalizer", None) is not None:
            self._finalizer.detach()
