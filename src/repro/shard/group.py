"""The shard group: the public name of the shard engine.

``ShardGroup`` *is* :class:`~repro.shard.transport.ShardTransport`: one
engine object driving ``g`` shard workers on in-process threads or
worker processes.  Build one with ``ShardGroup.build(...,
transport="thread" | "process")``; serve a fitted group with
``repro.serve.ModelServer(group=group)``.
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
