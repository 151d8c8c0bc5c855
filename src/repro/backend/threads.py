"""BLAS thread control over the OpenBLAS builds numpy and scipy bundle.

Wheels of numpy and scipy each ship their own OpenBLAS (in
``numpy.libs`` and ``scipy.libs`` next to the packages), and each reads
its thread count once, at load, from ``OPENBLAS_NUM_THREADS`` /
``OMP_NUM_THREADS`` or the CPU count.  :func:`set_blas_threads` changes
it afterwards through the libraries' own exported setters, via
:mod:`ctypes` — no extra dependency.  Both functions are no-ops
(:func:`blas_threads` returns ``None``) when no bundled OpenBLAS is
found, e.g. on a system-BLAS or non-Linux build.

The setting is per *process*: it is a budget for whole worker
processes, never for threads sharing one interpreter.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import importlib.util
import numbers
from pathlib import Path
from typing import Any

from repro.exceptions import ConfigurationError

__all__ = ["blas_threads", "set_blas_threads"]

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
