"""The shard group: the public name of the shard engine.

``ShardGroup`` *is* :class:`~repro.shard.transport.ShardTransport` — one
engine object driving ``g`` shard workers over a pluggable transport
(in-process threads, worker processes over shared memory, or
``torch.distributed`` ranks).  Build one with ``ShardGroup.build(...,
transport=<registered name>)``; the transport registry
(:func:`repro.shard.transport.available_transports`) resolves the name.
Serve a fitted group with ``repro.serve.ModelServer(group=group)``.
"""

from __future__ import annotations

from repro.shard.transport import (
    PendingMap,
    PendingReduce,
    ShardExecutor,
    ShardTransport,
    allreduce_sum,
)

__all__ = [
    "PendingMap",
    "PendingReduce",
    "ShardExecutor",
    "ShardGroup",
    "allreduce_sum",
]

ShardGroup = ShardTransport
