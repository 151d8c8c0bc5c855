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

Mixed precision
---------------
``use_precision("mixed")`` selects a *split* precision: kernel blocks and
GEMMs run in float32 (:func:`get_precision`, the **compute** dtype) while
the numerically sensitive accumulations — the all-reduce combine and the
EigenPro correction applied to the master weights — run in float64
(:func:`accumulate_dtype`; :func:`master_dtype` lifts a data dtype to
it).  A :class:`Precision` spec carries both dtypes; for a plain dtype
the two coincide, so every existing call site that only asks
:func:`get_precision` keeps its historical behavior.  The spec is
picklable and travels with submitted shard tasks, so worker processes see
the same split the caller selected.
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


class Precision:
    """A working-precision spec: a *compute* dtype plus an *accumulate* dtype.

    For a plain dtype request (``use_precision("float32")``) the two
    coincide and the spec degenerates to the historical single-dtype
    switch.  ``use_precision("mixed")`` selects float32 compute with
    float64 accumulation — kernel blocks and GEMMs form in float32 while
    the all-reduce combine and the EigenPro correction accumulate into
    float64 master weights.  Instances are immutable, hashable and
    picklable (shard transports ship the active spec with each task).
    """

    __slots__ = ("name", "compute", "accumulate")

    def __init__(self, name: str, compute: object, accumulate: object) -> None:
        object.__setattr__(self, "name", str(name))
        object.__setattr__(self, "compute", _as_float_dtype(compute))
        object.__setattr__(self, "accumulate", _as_float_dtype(accumulate))

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError(f"Precision is immutable (tried to set {key!r})")

    @property
    def is_mixed(self) -> bool:
        """True when compute and accumulate dtypes differ."""
        return self.compute != self.accumulate

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Precision)
            and self.compute == other.compute
            and self.accumulate == other.accumulate
        )

    def __hash__(self) -> int:
        return hash((self.compute, self.accumulate))

    def __reduce__(self):
        return (Precision, (self.name, self.compute.str, self.accumulate.str))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Precision({self.name!r}, compute={self.compute}, "
            f"accumulate={self.accumulate})"
        )


#: The mixed-precision spec selected by ``use_precision("mixed")``.
MIXED_PRECISION = Precision("mixed", np.float32, np.float64)


def _as_precision(value: object) -> Precision:
    """Resolve a precision request — a :class:`Precision`, the string
    ``"mixed"``, or anything :class:`numpy.dtype` accepts — to a spec."""
    if isinstance(value, Precision):
        return value
    if isinstance(value, str) and value == "mixed":
        return MIXED_PRECISION
    dtype = _as_float_dtype(value)
    return Precision(dtype.name, dtype, dtype)


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
    per-thread object.
    """

    def __init__(
        self, local: threading.local | None = None, attr: str = "stack"
    ) -> None:
        self._local = threading.local() if local is None else local
        self._attr = attr
        self._global: object | None = None

    def _stack(self) -> list:
        stack = getattr(self._local, self._attr, None)
        if stack is None:
            stack = []
            setattr(self._local, self._attr, stack)
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

    def push(self, value: object) -> None:
        self._stack().append(value)

    def pop(self, value: object) -> None:
        """Remove the innermost occurrence of ``value`` by identity; scopes
        may exit out of order under exceptions."""
        stack = self._stack()
        for pos in range(len(stack) - 1, -1, -1):
            if stack[pos] is value:
                del stack[pos]
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
        self._state.push(self.value)
        return self.value

    def __exit__(self, *exc: object) -> None:
        self._state.pop(self.value)


_PRECISION = ScopedOverride()


def get_precision() -> np.dtype:
    """The working (*compute*) dtype: innermost :func:`use_precision`
    scope, else :data:`DEFAULT_DTYPE`.  Under ``"mixed"`` this is
    float32 — the dtype kernel blocks and GEMMs run in; see
    :func:`accumulate_dtype` for the accumulation side."""
    current = _PRECISION.current()
    return DEFAULT_DTYPE if current is None else current.compute


def current_precision() -> Precision | None:
    """The explicitly selected :class:`Precision` spec, or ``None`` when
    no :func:`use_precision` scope is active.  This is what shard
    transports capture at submit time and re-establish on the worker."""
    return _PRECISION.current()


def accumulate_dtype() -> np.dtype:
    """The dtype numerically sensitive accumulations run in: the active
    spec's ``accumulate`` dtype (float64 under ``"mixed"``), else
    :func:`get_precision` itself."""
    current = _PRECISION.current()
    return DEFAULT_DTYPE if current is None else current.accumulate


def mixed_precision_active() -> bool:
    """True when the active precision splits compute from accumulation
    (``use_precision("mixed")`` or a custom split :class:`Precision`)."""
    current = _PRECISION.current()
    return current is not None and current.is_mixed


def master_dtype(dtype: object) -> np.dtype:
    """The dtype sums over ``dtype`` data accumulate in: ``dtype``
    lifted to :func:`accumulate_dtype` under mixed precision, else
    ``dtype`` itself.  The trainer's master weights and the host
    all-reduce take their dtype from here."""
    dtype = np.dtype(dtype)
    if mixed_precision_active():
        return np.result_type(dtype, accumulate_dtype())
    return dtype


def precision_is_explicit() -> bool:
    """True when a precision was selected via :func:`use_precision` (in
    which case it overrides input dtypes)."""
    return _PRECISION.is_explicit()


class use_precision(scoped_value):
    """Context manager selecting the working precision for the enclosed
    code: a float dtype, ``"mixed"``, or a :class:`Precision` spec.

    Example
    -------
    >>> import numpy as np
    >>> from repro.config import use_precision, get_precision
    >>> with use_precision(np.float32):
    ...     assert get_precision() == np.dtype(np.float32)
    """

    _state = _PRECISION

    def __init__(self, dtype: object) -> None:
        super().__init__(_as_precision(dtype))

    @property
    def dtype(self) -> np.dtype:
        return self.value.compute

    @property
    def precision(self) -> Precision:
        return self.value


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
