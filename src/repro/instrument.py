"""Lightweight operation-count instrumentation.

The paper's resource abstraction reasons about the *number of parallel
operations* an iteration performs — e.g. one SGD iteration on a batch of
``m`` points costs ``(d + l) * m * n`` operations (Section 3, "Computational
cost").  To validate our cost model (Table 1) against the code that actually
runs, the kernel substrate emits operation counts through the global meter
stack defined here, and the device simulator converts recorded operations
into simulated device time.

The meter is deliberately minimal: a thread-local stack of
:class:`OpMeter` objects.  Recording is a no-op when the stack is empty, so
instrumentation adds negligible overhead to un-metered code.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterator

__all__ = [
    "OP_CATEGORIES",
    "OpMeter",
    "OpRecord",
    "active_meters",
    "record_ops",
    "relay_op_counts",
    "meter_scope",
]

#: Frozen public contract: the operation categories the package records.
#:
#: These names are load-bearing across layers — the Table-1 cost model
#: buckets simulated time by them, transports relay worker-side deltas
#: keyed by them, and :class:`repro.observe.MetricsRegistry` exposes one
#: ``ops/<category>`` counter per entry.  Renaming or removing an entry
#: is a breaking change to persisted bench/trajectory artifacts;
#: additions append.
#:
#: - ``"kernel_eval"`` — pairwise kernel evaluations, ``m * n * d`` scale.
#: - ``"gemm"`` — dense matrix products such as ``K @ W``, ``m * n * l``.
#: - ``"precond"`` — the EigenPro correction chain, ``s*m*l + 2*s*q*l``
#:   as executed (``Phi^T g`` first; the paper's Table 1 prices the
#:   ``V^T Phi``-first order at ``s*m*q``).
#: - ``"eig"`` — one-time eigensystem setup work.
#: - ``"allreduce"`` — cross-shard reduction traffic, ``(g-1) * payload``
#:   scalars, recorded caller-side by the shard collectives.
OP_CATEGORIES: tuple[str, ...] = (
    "kernel_eval",
    "gemm",
    "precond",
    "eig",
    "allreduce",
)


@dataclass
class OpRecord:
    """A single category of counted work.

    Attributes
    ----------
    ops:
        Number of scalar multiply-accumulate-level operations.
    calls:
        Number of times this category was recorded.
    """

    ops: int = 0
    calls: int = 0


@dataclass(eq=False)
class OpMeter:
    """Accumulates operation counts by category.

    Identity-based equality (``eq=False``): two meters are the same only
    if they are the same object, which the scope stack relies on.

    Category names are the frozen :data:`OP_CATEGORIES` contract; the
    meter itself accepts any string so experimental categories can be
    recorded without a contract change.
    """

    counts: dict[str, OpRecord] = field(
        default_factory=lambda: defaultdict(OpRecord)
    )

    def record(self, category: str, ops: int) -> None:
        """Add ``ops`` operations to ``category``."""
        rec = self.counts[category]
        rec.ops += int(ops)
        rec.calls += 1

    def total(self, *categories: str) -> int:
        """Total operations, optionally restricted to given categories."""
        if categories:
            return sum(self.counts[c].ops for c in categories if c in self.counts)
        return sum(rec.ops for rec in self.counts.values())

    def reset(self) -> None:
        """Clear all recorded counts."""
        self.counts.clear()

    def as_dict(self) -> dict[str, int]:
        """Plain ``{category: ops}`` snapshot for reporting."""
        return {name: rec.ops for name, rec in self.counts.items()}


class _MeterStack(threading.local):
    def __init__(self) -> None:  # pragma: no cover - trivial
        self.stack: list[OpMeter] = []


_METERS = _MeterStack()


def active_meters() -> list[OpMeter]:
    """Return the (possibly empty) stack of currently active meters."""
    return _METERS.stack


def record_ops(category: str, ops: int) -> None:
    """Record ``ops`` operations against every active meter.

    No-op when no meter is active, so hot loops may call this
    unconditionally.
    """
    for meter in _METERS.stack:
        meter.record(category, ops)


def relay_op_counts(counts: dict[str, int]) -> None:
    """Record a ``{category: ops}`` delta captured on another thread
    against this thread's active meters.

    This is the single relay rule shared by every engine that meters work
    on a private worker-side :class:`OpMeter` and surfaces it where the
    result is consumed — the block prefetcher of
    :mod:`repro.core.trainer` and the shard collectives of
    :mod:`repro.shard.group`.  Zero entries are skipped so relaying never
    inflates a category's ``calls`` count with empty records.
    """
    for category, ops in counts.items():
        if ops:
            record_ops(category, ops)


class meter_scope:
    """Context manager that pushes a meter onto the active stack.

    Example
    -------
    >>> from repro.instrument import OpMeter, meter_scope
    >>> meter = OpMeter()
    >>> with meter_scope(meter):
    ...     pass  # metered work here
    """

    def __init__(self, meter: OpMeter | None = None) -> None:
        self.meter = meter if meter is not None else OpMeter()

    def __enter__(self) -> OpMeter:
        _METERS.stack.append(self.meter)
        return self.meter

    def __exit__(self, *exc: object) -> None:
        # Remove by identity; scopes may exit out of order under errors.
        for pos in range(len(_METERS.stack) - 1, -1, -1):
            if _METERS.stack[pos] is self.meter:
                del _METERS.stack[pos]
                break


def iter_categories(meter: OpMeter) -> Iterator[tuple[str, OpRecord]]:
    """Iterate ``(category, record)`` pairs sorted by descending ops."""
    return iter(
        sorted(meter.counts.items(), key=lambda kv: kv[1].ops, reverse=True)
    )
