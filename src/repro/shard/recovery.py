"""Elastic fault recovery for sharded training: checkpoint, re-plan, resume.

PR 4/5 made worker failure *detectable*: a killed shard surfaces as a
clean :class:`~repro.exceptions.ShardError` instead of a hang.  This
module turns detection into recovery — the artifacts a sharded fit needs
to *continue* after losing a worker:

- :class:`ShardCheckpoint` — a lightweight, transport-agnostic snapshot
  of the training state: the full weight matrix (gathered through the
  transport's host-visible weight surface, so taking one is a host copy
  — no extra RPC on shared-memory transports), the shuffling RNG state,
  the epoch/batch cursor and the op-meter totals at snapshot time.
  In-memory by default; :meth:`ShardCheckpoint.save` /
  :meth:`ShardCheckpoint.load` round-trip it to disk.
- :class:`RecoveryEvent` — the record of one elastic-shrink recovery
  (which shards died, g before/after, steps replayed, wall time spent
  tearing down/rebuilding/restoring), accumulated on the trainer's
  ``recovery_log_`` and priced analytically by
  :func:`repro.device.cluster.recovery_time`.  Under an active
  :class:`repro.observe.Tracer` the trainer additionally brackets each
  recovery with ``recovery/probe`` / ``recovery/teardown`` /
  ``recovery/restore`` / ``recovery/rebuild`` / ``recovery/replay``
  spans, and :meth:`repro.observe.MetricsRegistry.
  ingest_recovery_events` folds the log into the run's metric snapshot
  (``recovery/latency_s`` histogram, replayed-step and shards-lost
  counters).

The recovery *policy* lives in
:class:`~repro.shard.trainer.ShardedEigenPro2`: checkpoints every
``checkpoint_every`` steps, a liveness probe
(:meth:`~repro.shard.transport.ShardTransport.alive`) to learn which
workers died, teardown of the broken transport, a rebuild over the
surviving shard count on the same transport, weight restore
from the last checkpoint and resumption at its batch cursor — bounded by
``max_recoveries``, after which the original
:class:`~repro.exceptions.ShardError` propagates with the checkpoint
attached (``exc.checkpoint``) for out-of-band resumption.

Exactness: replayed steps re-run the same batch index blocks from the
same restored weights, so a recovered fit matches the no-failure run up
to the collective's association order — the shrunken plan sums partials
over ``g-1`` shard boundaries instead of ``g``, which perturbs the
result at the 1e-6-of-scale level the cross-transport conformance suite
already documents for resharded runs (bitwise only for a fixed plan).
"""

from __future__ import annotations

import os
import pickle
import tempfile
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = [
    "RecoveryEvent",
    "ShardCheckpoint",
]


@dataclass
class ShardCheckpoint:
    """Snapshot of a sharded fit, sufficient to restore-and-resume.

    Attributes
    ----------
    weights:
        Full ``(n, l)`` host weight matrix at snapshot time (gathered via
        :meth:`~repro.shard.ShardGroup.gather_weights`), in the caller's
        row order.
    epoch:
        1-based epoch the cursor points into.
    batch_cursor:
        Index of the next batch block to run within that epoch's
        precomputed block list (``0`` = epoch start); on restore the
        trainer replays blocks from this cursor.
    rng_state:
        ``bit_generator.state`` of the fit's shuffling RNG, captured so
        an out-of-band resume can reconstruct upcoming permutations
        (within-epoch recovery never rewinds the generator — the epoch's
        block list is fixed before any step runs).
    op_counts:
        Aggregate op-meter totals across shards at snapshot time, so
        accounting of replayed work can be reconciled.
    g:
        Shard count of the group the snapshot was taken from.
    transport:
        Name of the transport that produced it.
    """

    weights: np.ndarray
    epoch: int
    batch_cursor: int
    rng_state: dict[str, Any] | None = None
    op_counts: dict[str, int] = field(default_factory=dict)
    g: int = 1
    transport: str = "thread"

    @property
    def scalars(self) -> int:
        """Snapshot payload in scalars (the restore volume the cluster
        model's :func:`~repro.device.cluster.recovery_time` prices)."""
        w = self.weights
        return int(w.shape[0] * (w.shape[1] if w.ndim == 2 else 1))

    # ------------------------------------------------------------ disk form
    def save(self, path: str | os.PathLike) -> Path:
        """Persist to ``path`` (pickle), atomically: the snapshot is
        written to a sibling temp file and renamed into place, so a crash
        mid-write never truncates the last good checkpoint."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            prefix=path.name + ".", suffix=".tmp", dir=path.parent
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(self, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    @classmethod
    def load(cls, path: str | os.PathLike) -> "ShardCheckpoint":
        """Load a checkpoint previously written by :meth:`save` (pickle:
        only load files you trust)."""
        with open(path, "rb") as fh:
            obj = pickle.load(fh)
        if not isinstance(obj, cls):
            raise ConfigurationError(
                f"{os.fspath(path)!r} does not contain a ShardCheckpoint "
                f"(got {type(obj).__name__})"
            )
        return obj


@dataclass(frozen=True)
class RecoveryEvent:
    """One elastic-shrink recovery, as recorded on ``recovery_log_``.

    Attributes
    ----------
    epoch:
        Epoch in which the failure occurred.
    failed_step:
        Batch cursor being executed when the failure surfaced.
    resumed_step:
        Batch cursor of the checkpoint the fit resumed from.
    replayed_steps:
        ``failed_step - resumed_step`` — completed steps whose work is
        re-run after the restore (the replay term of
        :func:`repro.device.cluster.recovery_time`).
    old_g, new_g:
        Shard count before and after the elastic shrink.
    dead_shards:
        Shard ids the liveness probe reported dead (may be empty when
        the failure was a task error on a still-live worker — e.g. a
        collective timeout — in which case the shrink still retires one
        shard's capacity).
    error:
        ``"ExcType: message"`` of the failure that triggered recovery.
    recovery_s:
        Wall time of teardown + rebuild + restore (replay excluded; the
        replayed steps run at normal per-iteration cost).
    """

    epoch: int
    failed_step: int
    resumed_step: int
    replayed_steps: int
    old_g: int
    new_g: int
    dead_shards: tuple[int, ...]
    error: str
    recovery_s: float

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready form (``dead_shards`` as a list), as embedded in
        benchmark payloads and observability snapshots."""
        d = asdict(self)
        d["dead_shards"] = list(self.dead_shards)
        return d
