"""BLAS thread control over the OpenBLAS builds numpy and scipy bundle.

Wheels of numpy and scipy each ship their own OpenBLAS (in
``numpy.libs`` and ``scipy.libs`` next to the packages), and each reads
its thread count once, at load, from ``OPENBLAS_NUM_THREADS`` /
``OMP_NUM_THREADS`` or the CPU count.  :func:`set_blas_threads` changes
it afterwards through the libraries' own exported setters, via
:mod:`ctypes` — no extra dependency.  Both functions are no-ops
(:func:`blas_threads` returns ``None``) when no bundled OpenBLAS is
found, e.g. on a system-BLAS or non-Linux build.

The setting is per *process*.  The same count is also this process's
budget for the NumPy backend's kernel-block tiles: :func:`run_tiles`
splits the elementwise chain after a block's GEMM over the calling
thread plus ``T - 1`` pooled helper threads, ``T`` being
:func:`blas_threads` read at call time (the usable CPU count when it is
``None``).  A shard worker process at budget 1 therefore runs its tiles
serially and starts no helper thread.  The helper pool belongs to one
process: a forked child drops the pool it inherits (its threads do not
exist there) and builds its own on first use.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import importlib.util
import itertools
import numbers
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = ["blas_threads", "run_tiles", "set_blas_threads", "usable_cpus"]

#: ``(package, symbol suffix)`` of each bundled OpenBLAS: numpy's is the
#: ILP64 build whose exported names carry the ``64_`` suffix.
_BUNDLED = (("numpy", "64_"), ("scipy", ""))


@functools.lru_cache(maxsize=None)
def _openblas() -> tuple[tuple[Any, Any], ...]:
    """``(getter, setter)`` of every bundled OpenBLAS found, numpy's
    first.  Loading returns the handle the package already holds (or the
    one it will get on import), so a setting made here is the one the
    package's BLAS calls see."""
    found = []
    for package, suffix in _BUNDLED:
        spec = importlib.util.find_spec(package)
        if spec is None or spec.origin is None:
            continue
        libs = Path(spec.origin).resolve().parent.parent / f"{package}.libs"
        for path in sorted(glob.glob(str(libs / "lib*openblas*.so*"))):
            try:
                lib = ctypes.CDLL(path)
                getter = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
                setter = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
            except (OSError, AttributeError):
                continue
            getter.argtypes, getter.restype = [], ctypes.c_int
            setter.argtypes, setter.restype = [ctypes.c_int], None
            found.append((getter, setter))
    return tuple(found)


def blas_threads() -> int | None:
    """This process's BLAS thread count (numpy's OpenBLAS), or ``None``
    when no bundled OpenBLAS is found."""
    libs = _openblas()
    return int(libs[0][0]()) if libs else None


def set_blas_threads(n: int) -> None:
    """Set the thread count of every bundled OpenBLAS in this process."""
    if not isinstance(n, numbers.Integral) or n < 1:
        raise ConfigurationError(
            f"BLAS thread count must be an integer >= 1, got {n!r}"
        )
    for _, setter in _openblas():
        setter(int(n))


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the CPU
    count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity masks
        return os.cpu_count() or 1


#: ``(size, executor)`` of the helper-thread pool of :func:`run_tiles`,
#: and its lock; both are replaced in a forked child (:func:`_forget_pool`).
_POOL: tuple[int, ThreadPoolExecutor] | None = None
_POOL_LOCK = threading.Lock()


def _forget_pool() -> None:
    """Drop the pool a forked child inherits: its threads exist only in
    the parent, so a submit to it would never run."""
    global _POOL, _POOL_LOCK
    _POOL = None
    _POOL_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):  # POSIX only; no fork elsewhere
    os.register_at_fork(after_in_child=_forget_pool)


def _submit_helpers(fn: Callable[[], None], size: int, n_tasks: int) -> list:
    """Queue ``n_tasks`` calls of ``fn`` on the pool, resizing it to
    ``size`` threads first.  Under the lock, so a resize never shuts down
    a pool another caller is submitting to."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None or _POOL[0] != size:
            if _POOL is not None:
                _POOL[1].shutdown(wait=False)  # queued work still runs
            _POOL = (
                size, ThreadPoolExecutor(size, thread_name_prefix="repro-tile")
            )
        return [_POOL[1].submit(fn) for _ in range(n_tasks)]


def run_tiles(n_tiles: int, work: Callable[[int], Any]) -> None:
    """Run ``work(0) ... work(n_tiles - 1)`` over the calling thread and
    up to ``T - 1`` pooled helpers (module docstring).

    Tiles are claimed one at a time from a shared counter, so the caller
    alone finishes the lot when the helpers are busy elsewhere.  The call
    returns, or re-raises the first error (the caller's own first), only
    once no helper is still running a tile: a helper queued but not yet
    started is cancelled, a started one is waited for.  Helpers run under
    the caller's NumPy error state.
    """
    budget = blas_threads() or usable_cpus()
    if budget < 2 or n_tiles < 2:
        for i in range(n_tiles):
            work(i)
        return
    claim = itertools.count().__next__  # atomic under the GIL
    errstate = np.geterr()

    def drain() -> None:
        while (i := claim()) < n_tiles:
            work(i)

    def helper() -> None:
        with np.errstate(**errstate):
            drain()

    futures = _submit_helpers(helper, budget - 1, min(budget, n_tiles) - 1)
    try:
        drain()
    finally:
        for future in futures:
            if not future.cancel():
                future.exception()  # waits; errors re-raised below
    for future in futures:
        if not future.cancelled() and future.exception() is not None:
            raise future.exception()
