"""Elastic fault recovery for sharded training: the epoch anchor and the
recovery record.

A killed shard surfaces as a clean
:class:`~repro.exceptions.ShardError` instead of a hang.  This module
holds what a sharded fit needs to *continue* after losing a worker:

- :class:`ShardCheckpoint` — the epoch anchor: the full weight matrix at
  the start of an epoch, copied from the caller's weights (a host copy,
  no transport call), kept in memory.
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

The recovery *policy*: the epoch loop of
:class:`~repro.core.trainer.BaseKernelTrainer` takes one checkpoint at
every epoch start and, after a fault its handler accepts, restores it
and replays the epoch from its first step.  The handler of
:class:`~repro.shard.trainer.ShardedEigenPro2` accepts a
:class:`~repro.exceptions.ShardError` after a liveness probe
(:meth:`~repro.shard.transport.ShardTransport.alive`) to learn which
workers died, teardown of the broken transport and a rebuild over the
surviving shard count on the same transport (always at least one
fewer).  When no shard would survive the shrink, the original
:class:`~repro.exceptions.ShardError` propagates with the anchor
attached (``exc.checkpoint``).

Exactness: replayed steps re-run the same batch index blocks from the
same restored weights, so a recovered fit matches the no-failure run up
to the collective's association order — the shrunken plan sums partials
over ``g-1`` shard boundaries instead of ``g``, which perturbs the
result at the 1e-6-of-scale level the cross-transport conformance suite
already documents for resharded runs (bitwise only for a fixed plan).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any

import numpy as np

__all__ = [
    "RecoveryEvent",
    "ShardCheckpoint",
]


@dataclass
class ShardCheckpoint:
    """The weights of a sharded fit at the start of an epoch.

    Attributes
    ----------
    weights:
        Full ``(n, l)`` host weight matrix at snapshot time (a copy of
        the trainer's weights), in the caller's row order.
    epoch:
        1-based epoch whose start the snapshot anchors.
    """

    weights: np.ndarray
    epoch: int


@dataclass(frozen=True)
class RecoveryEvent:
    """One elastic-shrink recovery, as recorded on ``recovery_log_``.

    Attributes
    ----------
    epoch:
        Epoch in which the failure occurred.
    failed_step:
        Index of the epoch's step being executed when the failure
        surfaced.
    replayed_steps:
        Completed steps whose work is re-run after the restore (the
        replay term of :func:`repro.device.cluster.recovery_time`);
        equal to ``failed_step``, since the replay starts at the epoch's
        first step.
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
        Wall time of teardown + rebuild (the restore that follows is a
        host copy, timed by its own ``recovery/restore`` span; the
        replayed steps run at normal per-iteration cost).
    """

    epoch: int
    failed_step: int
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
