"""Pluggable array-backend layer for the kernel substrate.

The hot paths of this package — pairwise distances, kernel profiles,
blocked matvecs, eigensolvers and the EigenPro training loop — dispatch all
array work through an :class:`~repro.backend.base.ArrayBackend`.  Two
implementations ship:

- :class:`~repro.backend.numpy_backend.NumpyBackend` (default) — NumPy +
  SciPy on the host CPU; numerically identical to the historical code.
- :class:`~repro.backend.torch_backend.TorchBackend` — Torch on CPU or
  CUDA, imported lazily; requesting it without torch installed raises
  :class:`~repro.exceptions.BackendUnavailableError`.

Selection mirrors the precision switch in :mod:`repro.config`::

    from repro.backend import use_backend

    with use_backend("torch"):            # or "torch:cuda", or an instance
        model.fit(x, y, epochs=5)

    from repro.backend import set_backend
    set_backend("torch")                  # process-wide default

Precision and fusion
--------------------
The precision switch is re-exported here alongside the backends because
the two are selected together: ``use_precision("float32")`` pins the
working dtype, ``use_precision("mixed")`` splits it — kernel blocks and
GEMMs in float32 (:func:`get_precision`), the all-reduce combine and the
EigenPro correction accumulating in float64
(:func:`~repro.config.accumulate_dtype`).  Every backend also exposes a
*fused* kernel hot path, one entry point
(:meth:`~repro.backend.base.ArrayBackend.fused_kernel_block`) that
every radial kernel block reaches: the NumPy backend decomposes it to
the identical pooled-workspace ops (bit-for-bit equal to the unfused
chain, with the elementwise tail after the GEMM run in row tiles over
the process's compute threads), while the Torch backend compiles the
distance + profile chain into one graph via ``torch.compile`` (falling
back to an eager fused form when compilation is unavailable).  The
streamed matvec binds that chain and its GEMM once per call
(:meth:`~repro.backend.base.ArrayBackend.prepared_fused_matvec`).

BLAS threads
------------
:func:`blas_threads` and :func:`set_blas_threads` read and set this
process's OpenBLAS thread count (:mod:`repro.backend.threads`; no-ops
when numpy and scipy bundle no OpenBLAS).  The process and torchdist
shard transports use them to give every worker process a budget of
``max(1, usable_cpus // (g + 1))`` threads, with the usable CPUs taken
from the process's affinity mask and the ``+ 1`` leaving room for the
parent, which runs the correction and update while the workers form the
next block.  An ``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` set in
the environment wins over the computed budget.  Without the budget each
of the ``g`` workers runs a full-width OpenBLAS on the same cores.

The same count is the NumPy backend's thread budget for kernel-block
tiles (:func:`repro.backend.threads.run_tiles`): a worker process at
budget 1 forms its tiles serially, with no helper thread.

The parent process and the thread transport keep their thread counts.
The setting is per process, so a cap there would also throttle the
parent's setup ``eigh`` and its predicts: on a 2-vCPU host, one BLAS
thread for a whole ``fit-sharded`` benchmark run raised its setup time
from ~1.4 s to ~1.75 s and cut its predict throughput by ~18%.

Operation counts recorded through :mod:`repro.instrument` are computed from
array *shapes*, never from backend state, so a metered EigenPro epoch
reports identical op counts on every backend — fused or decomposed — the
invariant the Table-1 cost-model validation relies on (checked by
``tests/test_backend_parity.py``).
"""

from __future__ import annotations

import importlib.util
from typing import Any

import numpy as np

from repro.backend.base import ArrayBackend
from repro.backend.numpy_backend import NumpyBackend
from repro.backend.threads import blas_threads, set_blas_threads
from repro.backend.torch_backend import TorchBackend
from repro.config import (
    MIXED_PRECISION,
    Precision,
    ScopedOverride,
    accumulate_dtype,
    current_precision,
    get_precision,
    mixed_precision_active,
    precision_is_explicit,
    scoped_value,
    set_precision,
    use_precision,
)
from repro.exceptions import ConfigurationError

__all__ = [
    "ArrayBackend",
    "NumpyBackend",
    "TorchBackend",
    "available_backends",
    "backend_of",
    "blas_threads",
    "get_backend",
    "match_dtype",
    "resolve_backend",
    "set_backend",
    "set_blas_threads",
    "to_numpy",
    "use_backend",
    # re-exported precision switch
    "MIXED_PRECISION",
    "Precision",
    "accumulate_dtype",
    "current_precision",
    "get_precision",
    "mixed_precision_active",
    "set_precision",
    "use_precision",
    "precision_is_explicit",
]

_NUMPY = NumpyBackend()
#: Cache of constructed torch backends keyed by device string.
_TORCH_CACHE: dict[str, TorchBackend] = {}

#: Scope state for the backend switch — same machinery as the precision
#: switch (:class:`repro.config.ScopedOverride`).
_STATE = ScopedOverride()


def available_backends() -> list[str]:
    """Names of backends usable in this environment (no imports triggered)."""
    names = ["numpy"]
    if importlib.util.find_spec("torch") is not None:
        names.append("torch")
    return names


def resolve_backend(spec: str | ArrayBackend | None) -> ArrayBackend:
    """Turn a backend spec into an :class:`ArrayBackend` instance.

    Accepts an instance (returned as-is), ``None`` (the active backend),
    ``"numpy"``, ``"torch"``, or ``"torch:<device>"`` (e.g.
    ``"torch:cuda"``).
    """
    if spec is None:
        return get_backend()
    if isinstance(spec, ArrayBackend):
        return spec
    if not isinstance(spec, str):
        raise ConfigurationError(
            f"backend spec must be a name or ArrayBackend, got {spec!r}"
        )
    name, _, device = spec.partition(":")
    if name == "numpy":
        if device:
            raise ConfigurationError("the numpy backend takes no device")
        return _NUMPY
    if name == "torch":
        device = device or "cpu"
        backend = _TORCH_CACHE.get(device)
        if backend is None:
            backend = TorchBackend(device)
            # TorchBackend canonicalizes the device (e.g. "cuda" ->
            # "cuda:0"); alias both spellings to one shared instance.
            backend = _TORCH_CACHE.setdefault(str(backend.device), backend)
            _TORCH_CACHE[device] = backend
        return backend
    raise ConfigurationError(
        f"unknown backend {spec!r}; known backends: numpy, torch[:device]"
    )


def get_backend() -> ArrayBackend:
    """The active backend: innermost :func:`use_backend` scope, else the
    :func:`set_backend` process default (NumPy initially)."""
    current = _STATE.current()
    return _NUMPY if current is None else current


def set_backend(spec: str | ArrayBackend | None) -> ArrayBackend:
    """Set the process-wide default backend; ``None`` restores NumPy."""
    backend = _NUMPY if spec is None else resolve_backend(spec)
    _STATE.set_global(backend)
    return backend


class use_backend(scoped_value):
    """Context manager selecting the backend for the enclosed code.

    Example
    -------
    >>> from repro.backend import use_backend
    >>> with use_backend("numpy") as bk:
    ...     assert bk.name == "numpy"
    """

    _state = _STATE

    def __init__(self, spec: str | ArrayBackend) -> None:
        super().__init__(resolve_backend(spec))

    @property
    def backend(self) -> ArrayBackend:
        return self.value


def backend_of(x: Any) -> ArrayBackend:
    """The backend that owns array ``x`` (used by code operating on stored
    arrays that may have been created under a different backend scope).

    Detection is by type module, so this never imports torch for plain
    NumPy arrays.  For torch tensors the tensor's own device is preserved
    (a CUDA tensor resolves to the ``torch:cuda`` backend, not CPU).
    """
    if type(x).__module__.partition(".")[0] == "torch":
        return resolve_backend(f"torch:{x.device}")
    return _NUMPY


def to_numpy(x: Any) -> np.ndarray:
    """Convert any backend's array (or array-like) to a NumPy array."""
    return backend_of(x).to_numpy(x)


def match_dtype(x: Any, dtype: object, bk: ArrayBackend | None = None) -> Any:
    """Return ``x`` cast to ``dtype``; no copy when it already matches.

    The shared "cast up" helper for blocks produced by a kernel pinned
    below the working precision: NumPy would promote implicitly when such
    a block is contracted against higher-precision weights, but
    ``torch.matmul`` refuses mixed dtypes, so the training and streaming
    paths lift the block explicitly before the GEMM.
    """
    bk = backend_of(x) if bk is None else bk
    dtype = np.dtype(dtype)
    if bk.dtype_of(x) != dtype:
        return bk.asarray(x, dtype=dtype)
    return x
