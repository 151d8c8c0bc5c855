"""Shard transports: where a shard runs (threads, processes, ranks...).

:class:`~repro.shard.transport.base.ShardTransport` is the one shard
engine object (public name ``repro.shard.ShardGroup``).  It splits
*what a shard does* (the task functions of :mod:`repro.shard.trainer` /
:mod:`repro.shard.ops`, executed against a
:class:`~repro.shard.transport.base.ShardWorker`) from *where it runs*:

- :class:`~repro.shard.transport.thread.ThreadTransport` — in-process
  worker threads, zero-copy weight views; the "network" is a host
  memcpy.  Supports any :class:`~repro.backend.ArrayBackend` per shard.
- :class:`~repro.shard.transport.process.ProcessTransport` — one worker
  process per shard over shared-memory center/weight blocks; tasks pay
  a real IPC round-trip, mirror-back is a direct shared-memory write
  (asynchronous — no per-update barrier).
- :class:`~repro.shard.transport.torchdist.TorchDistributedTransport` —
  the process architecture with every worker a rank of a
  ``torch.distributed`` process group; the all-reduce is a *real*
  collective (gloo over CPU tensors, NCCL when CUDA backends are
  requested).

Every transport is pinned by the same conformance suite
(``tests/test_shard_transport_conformance.py``): bitwise-identical
results, identical op-count relays, FIFO per-worker ordering.

The registry
------------
Transports are discovered by name through one registry: the built-ins
register here at import, and :func:`register_transport` files any
:class:`~repro.shard.transport.base.ShardTransport` subclass so that
``ShardTransport.build(transport=...)`` (alias ``ShardGroup.build``),
:class:`~repro.shard.trainer.ShardedEigenPro2`,
``run_shard_validation``, ``benchmarks/bench_shard.py --transport`` and
the conformance suite's parametrization all see it — no per-call-site
string matching.  :func:`registered_transports` lists every name;
:func:`available_transports` filters by each class's
``is_available()`` (platform support, optional dependencies), which is
how torch-dependent cases *report* a skip instead of failing when torch
is absent; :func:`transport_available` answers the same question for one
name.
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
from repro.shard.transport.torchdist import TorchDistributedTransport

__all__ = [
    "PendingMap",
    "PendingReduce",
    "ProcessShardExecutor",
    "ProcessTransport",
    "ShardExecutor",
    "ShardTransport",
    "ShardWorker",
    "ThreadTransport",
    "TorchDistributedTransport",
    "allreduce_sum",
    "available_transports",
    "register_transport",
    "registered_transports",
    "resolve_transport",
    "transport_available",
    "unregister_transport",
]

_REGISTRY: dict[str, type[ShardTransport]] = {}


def register_transport(
    cls: type[ShardTransport], *, replace: bool = False
) -> type[ShardTransport]:
    """File a transport class under its ``name`` so every transport
    consumer (group builder, trainer, validation harness, bench CLI,
    conformance suite) discovers it.

    Registration is by class attribute ``name`` and never requires the
    transport to be *available* — availability
    (:meth:`~repro.shard.transport.base.ShardTransport.is_available`) is
    checked when listing or constructing.  Returns ``cls`` so it can be
    used as a decorator.  Re-registering the same class is a no-op;
    registering a different class under a taken name requires
    ``replace=True``.
    """
    if not isinstance(cls, type) or not issubclass(cls, ShardTransport):
        raise ConfigurationError(
            f"register_transport needs a ShardTransport subclass, got {cls!r}"
        )
    name = cls.name
    if not name or name == ShardTransport.name:
        raise ConfigurationError(
            f"transport class {cls.__name__} must define a concrete "
            f"`name` (got {name!r})"
        )
    current = _REGISTRY.get(name)
    if current is not None and current is not cls and not replace:
        raise ConfigurationError(
            f"transport name {name!r} is already registered to "
            f"{current.__name__}; pass replace=True to override"
        )
    _REGISTRY[name] = cls
    return cls


def unregister_transport(name: str) -> None:
    """Remove a registered transport (primarily for tests that register
    throwaway transports); unknown names are a no-op."""
    _REGISTRY.pop(name, None)


def registered_transports() -> list[str]:
    """All registered transport names, in registration order (the
    built-ins first: thread, process, torchdist)."""
    return list(_REGISTRY)


def transport_available(name: str) -> bool:
    """Whether ``name`` is registered *and* usable in this environment."""
    cls = _REGISTRY.get(name)
    return cls is not None and cls.is_available()


def available_transports() -> list[str]:
    """Names of registered transports usable in this environment."""
    return [name for name in _REGISTRY if _REGISTRY[name].is_available()]


def resolve_transport(
    spec: str | type[ShardTransport],
) -> type[ShardTransport]:
    """Turn a transport spec (a registered name or a
    :class:`ShardTransport` subclass) into the transport class."""
    if isinstance(spec, type) and issubclass(spec, ShardTransport):
        return spec
    if isinstance(spec, str):
        try:
            return _REGISTRY[spec]
        except KeyError:
            raise ConfigurationError(
                f"unknown shard transport {spec!r}; registered "
                "transports: " + ", ".join(registered_transports())
                + " (add your own with "
                "repro.shard.transport.register_transport)"
            ) from None
    raise ConfigurationError(
        f"transport must be a name or ShardTransport subclass, got {spec!r}"
    )


register_transport(ThreadTransport)
register_transport(ProcessTransport)
register_transport(TorchDistributedTransport)
