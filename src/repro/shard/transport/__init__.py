"""Shard transports: where a shard runs (threads or processes).

:class:`~repro.shard.transport.base.ShardTransport` is the one shard
engine object (public name ``repro.shard.ShardGroup``).  It splits
*what a shard does* (the task functions of :mod:`repro.shard.trainer` /
:mod:`repro.shard.ops`, executed against a
:class:`~repro.shard.transport.base.ShardWorker`) from *where it runs*:

- :class:`~repro.shard.transport.thread.ThreadTransport` (``"thread"``)
  — in-process worker threads, zero-copy weight views; the "network" is
  a host memcpy.  Supports any :class:`~repro.backend.ArrayBackend` per
  shard.
- :class:`~repro.shard.transport.process.ProcessTransport`
  (``"process"``) — one worker process per shard over shared-memory
  center/weight blocks; tasks pay a real IPC round-trip, mirror-back is
  a direct shared-memory write (asynchronous — no per-update barrier).

Both are pinned by the same conformance suite
(``tests/test_shard_transport_conformance.py``): bitwise-identical
results, identical op-count relays, FIFO per-worker ordering.
:func:`resolve_transport` maps a transport name to its class.
"""

from __future__ import annotations

from repro.exceptions import ConfigurationError
from repro.shard.transport.base import (
    PendingMap,
    PendingReduce,
    ShardTransport,
    ShardWorker,
    allreduce_sum,
)
from repro.shard.transport.process import ProcessShardExecutor, ProcessTransport
from repro.shard.transport.thread import ShardExecutor, ThreadTransport

__all__ = [
    "PendingMap",
    "PendingReduce",
    "ProcessShardExecutor",
    "ProcessTransport",
    "ShardExecutor",
    "ShardTransport",
    "ShardWorker",
    "ThreadTransport",
    "allreduce_sum",
    "resolve_transport",
]

_TRANSPORTS: dict[str, type[ShardTransport]] = {
    "thread": ThreadTransport,
    "process": ProcessTransport,
}


def resolve_transport(name: str) -> type[ShardTransport]:
    """The transport class for ``name`` (``"thread"`` or ``"process"``)."""
    try:
        return _TRANSPORTS[name]
    except (KeyError, TypeError):
        raise ConfigurationError(
            f"unknown shard transport {name!r}; transports: "
            + ", ".join(_TRANSPORTS)
        ) from None
