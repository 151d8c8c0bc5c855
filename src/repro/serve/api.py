"""The serving request/response vocabulary.

:class:`PredictRequest` and :class:`PredictResponse` are the one request
type every serving entry point speaks, from the HTTP handler
(:mod:`repro.serve.http`) and its client (:mod:`repro.serve.client`)
down to the in-process :class:`~repro.serve.ModelServer`'s dispatcher.
A request carries the rows to score plus its *quality-of-service
envelope* (priority, deadline, correlation id); a response carries the
predicted values plus the serving provenance a production caller wants
next to them: the serving run id and where the request's latency went
(queue vs batch).

:meth:`ModelServer.submit_request
<repro.serve.ModelServer.submit_request>` also takes a bare ``(b, d)``
array and wraps it in a default-QoS :class:`PredictRequest`.

A request that misses its deadline while queued is *shed*: its future
fails with :class:`~repro.exceptions.DeadlineExceeded` before any shard
work runs (see the scheduling notes in :mod:`repro.serve.server`), so a
:class:`PredictResponse` is only ever produced for served requests.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = ["PredictRequest", "PredictResponse"]


#: Request ids label responses and spans: they must be unique, not
#: secret, so they come from a private generator instead of ``uuid4``,
#: whose ``os.urandom`` is a system call (and a GIL hand-off) on every
#: request.  A forked child reseeds it, as :mod:`random` does its own.
_IDS = random.Random()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_IDS.seed)


def _new_request_id() -> str:
    return f"r-{_IDS.getrandbits(48):012x}"


def is_integer(value: Any) -> bool:
    """True for an integral number that is not a ``bool``: ``3``,
    ``np.int64(3)`` and ``3.0`` pass; ``2.5``, NaN, inf, ``True`` and
    ``"3"`` do not."""
    if isinstance(value, (bool, np.bool_)):
        return False
    try:
        return int(value) == value
    except (TypeError, ValueError, OverflowError):  # "x", NaN, inf
        return False


@dataclass(frozen=True)
class PredictRequest:
    """One typed prediction request.

    Attributes
    ----------
    rows:
        The samples to score: ``(b, d)`` for any ``b >= 0``, or a single
        sample ``(d,)`` (the response's ``values`` is then its one
        result row).  Anything array-like the backends accept.
    priority:
        Cohort-formation rank; *higher* is served first.  Requests of
        equal priority keep FIFO order (see
        :mod:`repro.serve.server`).  Default ``0``.  An integral value;
        a fractional, non-finite or ``bool`` one is refused.
    deadline_s:
        Seconds from submission after which the request is useless to
        its caller.  Once expired, the dispatcher *sheds* the request —
        fails its future with :class:`~repro.exceptions.DeadlineExceeded`
        at cohort formation, consuming no tick.  ``None`` (default)
        never sheds.  Must be a number ``> 0`` when given (stored as a
        ``float``): a non-positive deadline is a request that was dead on
        arrival, which is a caller bug, not load; a ``bool``, a string or
        NaN is refused.
    request_id:
        Correlation id echoed on the response (and in shed errors).
        Auto-generated when omitted.
    """

    rows: Any
    priority: int = 0
    deadline_s: float | None = None
    request_id: str = field(default_factory=_new_request_id)

    def __post_init__(self) -> None:
        if self.deadline_s is not None:
            refused = isinstance(
                self.deadline_s, (bool, np.bool_, str, bytes)
            )
            try:
                seconds = float(self.deadline_s)
            except (TypeError, ValueError, OverflowError):  # [1], 10**400
                seconds = math.nan
            if refused or not seconds > 0:  # NaN fails the comparison
                raise ConfigurationError(
                    f"deadline_s must be > 0 seconds (or None), got "
                    f"{self.deadline_s!r}"
                )
            object.__setattr__(self, "deadline_s", seconds)
        if not is_integer(self.priority):
            raise ConfigurationError(
                f"priority must be an integer, got {self.priority!r}"
            )
        if not isinstance(self.request_id, str) or not self.request_id:
            raise ConfigurationError(
                f"request_id must be a non-empty string, got "
                f"{self.request_id!r}"
            )


@dataclass(frozen=True)
class PredictResponse:
    """One served prediction, with its latency provenance.

    Attributes
    ----------
    values:
        The predicted rows — bit-identical to a solo
        :func:`~repro.shard.sharded_predict` on the same group (``(b,
        l)``; ``(l,)`` for a single-sample ``(d,)`` request).
    run_id:
        The serving session's run id (correlates with the server's
        :class:`~repro.observe.MetricsRegistry` snapshots and logs).
    request_id:
        Echo of the request's correlation id.
    queue_s:
        Seconds the request waited before its dispatcher tick fired.
    batch_s:
        Seconds from tick dispatch to this request's rows being
        scattered back (shared tick compute + per-request scatter).
    """

    values: np.ndarray
    run_id: str
    request_id: str
    queue_s: float
    batch_s: float

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready form (``values`` as nested lists; floats survive
        the round-trip bitwise — :func:`json.dumps` emits shortest
        round-trip reprs)."""
        return {
            "values": np.asarray(self.values).tolist(),
            "run_id": self.run_id,
            "request_id": self.request_id,
            "queue_s": self.queue_s,
            "batch_s": self.batch_s,
        }
