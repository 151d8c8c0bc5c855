"""Exception hierarchy for the :mod:`repro` package.

All package-specific failures derive from :class:`ReproError` so callers can
catch everything raised by this library with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigurationError(ReproError, ValueError):
    """Raised when user-supplied parameters are invalid or inconsistent.

    Also a :class:`ValueError` so that generic validation code treats it
    like any other bad-argument failure.
    """


class NotFittedError(ReproError, RuntimeError):
    """Raised when a model is used before :meth:`fit` has been called."""


class ConvergenceError(ReproError, RuntimeError):
    """Raised when an iterative solver fails to reach its target tolerance
    within the allowed iteration budget."""


class DeviceMemoryError(ReproError, MemoryError):
    """Raised when an allocation on a simulated device exceeds its
    internal resource memory ``S_G``."""


class BackendUnavailableError(ReproError, ImportError):
    """Raised when an array backend is requested whose runtime dependency
    (e.g. ``torch``) is not installed."""


class ShardError(ReproError, RuntimeError):
    """Raised by the shard transport layer when a shard executor fails as
    an *engine* rather than as arithmetic: a worker process died or became
    unreachable, a collective could not complete, or a task was submitted
    to a transport that has already failed.  Distinct from
    :class:`ConfigurationError` (bad arguments) so callers can retry or
    rebuild a group on transport failure without masking input bugs.

    When elastic recovery (:mod:`repro.shard.recovery`) gives up — no
    shard would survive another shrink — the propagating instance
    carries the failed epoch's anchor
    :class:`~repro.shard.recovery.ShardCheckpoint` on :attr:`checkpoint`:
    the weights at that epoch's start, in the caller's row order.
    """

    #: The failed epoch's anchor checkpoint; ``None`` for transport-level
    #: errors raised outside the recovery loop (and always ``None`` on
    #: worker-side instances — the attribute is attached caller-side and
    #: never crosses the pickle boundary).
    checkpoint = None


class DeadlineExceeded(ShardError):
    """Raised (onto a request's future) by the serving dispatcher when a
    queued request's deadline expired before its micro-batch tick was
    formed: the request is *shed* — it never reaches the shard group, so
    an already-late caller does not consume a tick other requests could
    use.  A :class:`ShardError` subclass so generic "engine failed,
    retry elsewhere" handlers keep working, while latency-sensitive
    callers can distinguish *late* from *broken*.
    """


class BackendLinAlgError(ReproError, ArithmeticError):
    """Raised by backend linear-algebra primitives when a factorization
    fails (e.g. Cholesky of a non-PSD matrix), unifying the distinct
    exception types of NumPy/SciPy and Torch."""
