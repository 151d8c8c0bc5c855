"""Global configuration for numeric defaults and the precision switch.

Keeping these in one module means tests and experiments can tighten or relax
precision in a single place rather than scattering dtype literals.

Precision switch
----------------
The paper trains in float32 on the GPU while our CPU default is float64 for
eigensolver headroom.  :func:`use_precision` selects the working dtype for
the whole kernel substrate without threading a ``dtype=`` argument through
every call::

    from repro.config import use_precision

    with use_precision("float32"):
        model.fit(x, y, epochs=5)   # all kernel blocks held in float32

The switch is honored by :func:`compute_dtype`, which every kernel, the
pairwise layer and the blocked operations use to pick a working dtype from
their inputs.  When no precision is selected, ``compute_dtype`` preserves
the floating dtype of its inputs — float32 data stays float32 instead of
being silently promoted to float64.

The selected dtype is picklable and travels with submitted shard tasks,
so worker threads and processes run in the precision the caller selected.
"""

from __future__ import annotations

import os
import threading

import numpy as np

#: Default floating dtype for all kernel and solver computations.  The paper
#: trains in float32 on the GPU; we default to float64 on CPU for numerical
#: headroom in the eigensolvers and allow float32 to be requested explicitly.
DEFAULT_DTYPE: np.dtype = np.dtype(np.float64)

#: Bytes per scalar assumed by the *device* memory model.  The paper's memory
#: accounting (Section 3, "Space usage") counts scalars; GPUs store float32.
DEVICE_BYTES_PER_SCALAR: int = 4

#: Default maximum number of scalars a single temporary kernel block may hold
#: when evaluating kernel matrices in a blocked fashion (≈ 64 MB of float64).
DEFAULT_BLOCK_SCALARS: int = 8_000_000

#: Numerical floor used when dividing by eigenvalues or norms.
EPS: float = 1e-12


def _as_float_dtype(dtype: object) -> np.dtype:
    resolved = np.dtype(dtype)  # raises TypeError on junk input
    if resolved.kind != "f":
        raise TypeError(f"expected a floating dtype, got {resolved!r}")
    return resolved


class ScopedOverride:
    """Per-thread stack of scoped override values plus a process-wide global.

    This is the scope machinery shared by the precision switch here, the
    backend switch in :mod:`repro.backend` and the meter and tracer scopes
    of :mod:`repro.instrument`: the innermost active scope on the current
    thread wins, then the process-wide global set by the corresponding
    ``set_*`` function, then nothing (:meth:`current` returns ``None`` and
    the caller applies its default).

    The stack is the ``attr`` attribute of ``local``, a private
    ``threading.local`` unless given, so several stacks can live on one
    per-thread object.  A parallel ``attr + "_owners"`` list records the
    scope that pushed each value, so a scope that exits out of order
    (under exceptions) removes its own entry even when another scope
    pushed an equal value (an interned dtype, a shared backend).
    """

    def __init__(
        self, local: threading.local | None = None, attr: str = "stack"
    ) -> None:
        self._local = threading.local() if local is None else local
        self._attr = attr
        self._global: object | None = None

    def _stack(self, suffix: str = "") -> list:
        stack = getattr(self._local, self._attr + suffix, None)
        if stack is None:
            stack = []
            setattr(self._local, self._attr + suffix, stack)
        return stack

    def current(self) -> object | None:
        """The active value: innermost scope, else the global, else ``None``."""
        stack = self._stack()
        if stack:
            return stack[-1]
        return self._global

    def is_explicit(self) -> bool:
        """True when a scope is active or the global is set."""
        return bool(self._stack()) or self._global is not None

    def set_global(self, value: object | None) -> None:
        """Set (or with ``None`` clear) the process-wide value."""
        self._global = value

    def push(self, value: object, owner: object) -> None:
        self._stack().append(value)
        self._stack("_owners").append(owner)

    def pop(self, owner: object) -> None:
        """Remove the innermost entry ``owner`` pushed."""
        stack, owners = self._stack(), self._stack("_owners")
        for pos in range(len(owners) - 1, -1, -1):
            if owners[pos] is owner:
                del stack[pos], owners[pos]
                break


class scoped_value:
    """Context-manager base over a :class:`ScopedOverride`.

    Subclasses set the class attribute ``_state`` and resolve their
    argument to the stored value in ``__init__``; entering the scope
    pushes that value and returns it.
    """

    _state: ScopedOverride

    def __init__(self, value: object) -> None:
        self.value = value

    def __enter__(self):
        self._state.push(self.value, self)
        return self.value

    def __exit__(self, *exc: object) -> None:
        self._state.pop(self)


_PRECISION = ScopedOverride()


def get_precision() -> np.dtype:
    """The working dtype: innermost :func:`use_precision` scope, else
    :data:`DEFAULT_DTYPE`."""
    current = _PRECISION.current()
    return DEFAULT_DTYPE if current is None else current


def current_precision() -> np.dtype | None:
    """The explicitly selected dtype, or ``None`` when no
    :func:`use_precision` scope is active.  This is what shard
    transports capture at submit time and re-establish on the worker."""
    return _PRECISION.current()


def precision_is_explicit() -> bool:
    """True when a precision was selected via :func:`use_precision` (in
    which case it overrides input dtypes)."""
    return _PRECISION.is_explicit()


class use_precision(scoped_value):
    """Context manager selecting the working precision (a float dtype)
    for the enclosed code.

    Example
    -------
    >>> import numpy as np
    >>> from repro.config import use_precision, get_precision
    >>> with use_precision(np.float32):
    ...     assert get_precision() == np.dtype(np.float32)
    """

    _state = _PRECISION

    def __init__(self, dtype: object) -> None:
        super().__init__(_as_float_dtype(dtype))


#: Debug switch for the pooled-scratch contract of the streaming layer.
#: When enabled, a caller-provided ``out`` buffer that a kernel or the
#: pairwise layer would silently *discard* (shape or dtype mismatch)
#: raises instead — so a workspace regression (a hot path quietly
#: re-allocating its block every step) cannot land unnoticed.  The flag
#: is deliberately *process-global*, not thread-scoped: the shard engine
#: forms its blocks on worker threads, and the whole point is to catch a
#: discarded buffer wherever it happens.
#: Enabled by the ``REPRO_DEBUG_WORKSPACE`` environment variable or the
#: :class:`debug_workspace` context manager (tests use the latter).
_WORKSPACE_DEBUG = {
    "enabled": os.environ.get("REPRO_DEBUG_WORKSPACE", "") not in ("", "0")
}


def workspace_debug_enabled() -> bool:
    """True when discarded scratch buffers should raise (see
    :class:`debug_workspace`)."""
    return _WORKSPACE_DEBUG["enabled"]


class debug_workspace:
    """Context manager enabling the pooled-scratch assertions.

    Inside the scope, any streamed kernel evaluation whose ``out`` scratch
    would be silently discarded raises a ``ConfigurationError`` — on every
    thread, including prefetch and shard workers.  Used by the workspace
    regression tests; cheap enough to leave on in CI via
    ``REPRO_DEBUG_WORKSPACE=1``.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = bool(enabled)
        self._previous: bool | None = None

    def __enter__(self) -> "debug_workspace":
        self._previous = _WORKSPACE_DEBUG["enabled"]
        _WORKSPACE_DEBUG["enabled"] = self.enabled
        return self

    def __exit__(self, *exc: object) -> None:
        _WORKSPACE_DEBUG["enabled"] = bool(self._previous)


def compute_dtype(*arrays: object) -> np.dtype:
    """Working dtype for a computation over ``arrays``.

    - Under an explicit precision (:func:`use_precision`), that dtype
      wins unconditionally.
    - Otherwise the floating result type of the inputs is preserved —
      float32 inputs compute in float32 rather than silently promoting
      to float64.
    - Non-floating inputs (ints, lists of ints) fall back to
      :data:`DEFAULT_DTYPE`.
    """
    if precision_is_explicit():
        return get_precision()
    float_dtypes = []
    for arr in arrays:
        dt = getattr(arr, "dtype", None)
        if dt is None:
            continue
        if not isinstance(dt, np.dtype):
            # Foreign dtype object (e.g. torch.float32): parse via its name.
            try:
                dt = np.dtype(str(dt).replace("torch.", ""))
            except TypeError:
                continue
        if dt.kind == "f":
            float_dtypes.append(dt)
    if not float_dtypes:
        return DEFAULT_DTYPE
    if all(dt == float_dtypes[0] for dt in float_dtypes[1:]):
        return float_dtypes[0]  # skip np.result_type on the hot path
    return np.result_type(*float_dtypes)
