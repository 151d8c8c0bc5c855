"""Per-layer ledger: timing wrappers installed on the program from outside.

A :class:`Ledger` replaces a fixed set of public entry points of the
``repro`` package with thin timing wrappers while it is installed, and
restores the originals afterwards.  Nothing under ``src/`` is edited: the
wrappers are attribute swaps on modules and classes, so they reach every
caller that looks the entry point up at call time (module globals, class
attributes), on every thread of this process.

Each call is kept as a ``(start, end, thread_ident)`` interval on the
``time.perf_counter()`` clock the program's own spans use, so wrapper
intervals and :class:`repro.observe.SpanEvent` intervals can be merged
into one timeline (see :func:`union_seconds`).

Recording appends to lists created at install time and takes no lock:
``list.append`` is atomic under the interpreter lock, and a lock held by
another thread at the moment a shard transport forks its workers would
be copied into the child in the locked state.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import threading
import time
from typing import Any, Callable, Iterable, Iterator

#: ``(module, class or None, attribute, ledger name)``: the entry points
#: timed per layer.  A class of ``None`` wraps the module attribute, which
#: is what callers inside that module resolve at call time.
ENTRY_POINTS: tuple[tuple[str, str | None, str, str], ...] = (
    ("repro.core.eigenpro2", None, "select_parameters", "core.select_parameters"),
    ("repro.core.eigenpro2", None, "nystrom_extension", "linalg.nystrom_extension"),
    ("repro.core.eigenpro2", None, "estimate_beta", "core.estimate_beta"),
    ("repro.core.model", "KernelModel", "mse", "core.monitor"),
    ("repro.kernels.base", "Kernel", "__call__", "kernels.eval"),
    ("repro.shard.group", "ShardGroup", "build", "shard.group_build"),
    ("repro.shard.group", "ShardGroup", "map_async", "shard.dispatch"),
    ("repro.shard.group", "ShardGroup", "map_allreduce_async", "shard.dispatch"),
    ("repro.shard.transport.base", "ShardTransport", "allreduce", "shard.allreduce"),
    ("repro.serve.http", "_Handler", "do_POST", "serve.http_handler"),
)

Interval = tuple[float, float]


def _allreduce_bytes(args: tuple, kwargs: dict) -> float:
    partials = args[1] if len(args) > 1 else kwargs.get("partials", ())
    return float(sum(getattr(p, "nbytes", 0) for p in partials))


#: Extra quantities measured from a call's arguments, by ledger name.
MEASURES: dict[str, Callable[[tuple, dict], float]] = {
    "shard.allreduce": _allreduce_bytes,
}


class Ledger:
    """Timing wrappers over :data:`ENTRY_POINTS`, installed and removed
    together, and the calls they recorded.

    ``scope_factory`` (optional) returns a context manager entered around
    every ``serve.http_handler`` call, so the serving engine relays each
    request's spans to the tracers active on its handler thread.
    """

    def __init__(
        self, scope_factory: Callable[[], Any] | None = None
    ) -> None:
        self.scope_factory = scope_factory
        self.calls: dict[str, list[tuple[float, float, int]]] = {
            name: [] for *_, name in ENTRY_POINTS
        }
        self.measured: dict[str, list[float]] = {name: [] for name in MEASURES}
        self._saved: list[tuple[Any, str, Any]] = []

    # ----------------------------------------------------------- wrappers
    def _timed(self, name: str, fn: Callable) -> Callable:
        calls = self.calls[name]
        measure = MEASURES.get(name)
        measured = self.measured.get(name)
        scope = (
            self.scope_factory
            if name == "serve.http_handler" and self.scope_factory
            else None
        )

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if measure is not None:
                measured.append(measure(args, kwargs))
            start = time.perf_counter()
            try:
                if scope is None:
                    return fn(*args, **kwargs)
                with scope():
                    return fn(*args, **kwargs)
            finally:
                calls.append((start, time.perf_counter(), threading.get_ident()))

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("ledger already installed")
        for module_name, class_name, attr, name in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = module if class_name is None else getattr(module, class_name)
            original = (
                getattr(owner, attr) if class_name is None
                else owner.__dict__[attr]
            )
            if isinstance(original, classmethod):
                patched: Any = classmethod(self._timed(name, original.__func__))
            else:
                patched = self._timed(name, original)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, patched)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self) -> Iterator["Ledger"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # ------------------------------------------------------------ readout
    def seconds(self, name: str) -> float:
        """Summed wall seconds of every call to ``name`` on any thread."""
        return sum(end - start for start, end, _ in self.calls[name])

    def count(self, name: str) -> int:
        return len(self.calls[name])

    def durations(self, name: str) -> list[float]:
        return [end - start for start, end, _ in self.calls[name]]

    def intervals(self, thread_ident: int) -> list[Interval]:
        """Every recorded call interval on one thread."""
        return [
            (start, end)
            for calls in self.calls.values()
            for start, end, ident in calls
            if ident == thread_ident
        ]


def union_seconds(intervals: Iterable[Interval], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``.

    Nested and overlapping intervals (a span inside a wrapped call, a
    wrapped call inside a span) count once, so the result is the share of
    the window some layer accounts for.
    """
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total
