"""Partitioning of the ``n`` training centers into ``g`` contiguous shards.

A :class:`ShardPlan` is the static description of the data-parallel layout
modelled by :mod:`repro.device.cluster`: shard ``i`` owns the contiguous
center rows ``[bounds[i], bounds[i+1])`` together with the matching rows of
the weight matrix ``alpha``.  Contiguity keeps every per-shard array a
zero-copy slice of the source on the NumPy backend and makes ownership
queries (:meth:`shard_of`, :meth:`localize`) a binary search.

Two constructors balance the shards by cost.  :meth:`ShardPlan.contiguous`
prices every row the same, so shard sizes differ by at most one row.
:meth:`ShardPlan.balanced` lets the leading rows cost more: the sharded
trainer holds the EigenPro subsample first, and the shard holding it also
runs the correction (:mod:`repro.shard.trainer`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = ["ShardPlan"]


@dataclass(frozen=True)
class ShardPlan:
    """Contiguous partition of ``n`` rows into ``g`` shards, balanced by
    cost (:meth:`contiguous`: every row costs the same; :meth:`balanced`:
    the leading rows cost more).

    Attributes
    ----------
    n:
        Total number of center rows.
    bounds:
        ``g + 1`` ascending offsets with ``bounds[0] == 0`` and
        ``bounds[-1] == n``; shard ``i`` owns ``[bounds[i], bounds[i+1])``.
    """

    n: int
    bounds: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigurationError(f"n must be >= 1, got {self.n}")
        if len(self.bounds) < 2 or self.bounds[0] != 0 or self.bounds[-1] != self.n:
            raise ConfigurationError(
                f"bounds must run from 0 to n={self.n}, got {self.bounds}"
            )
        if any(b > a for a, b in zip(self.bounds[1:], self.bounds)):
            raise ConfigurationError(
                f"bounds must be non-decreasing, got {self.bounds}"
            )

    @classmethod
    def contiguous(cls, n: int, g: int) -> "ShardPlan":
        """Balanced plan: shard sizes differ by at most one row."""
        if n < 1:
            raise ConfigurationError(f"n must be >= 1, got {n}")
        g = int(g)
        if not 1 <= g <= n:
            raise ConfigurationError(
                f"shard count must be in [1, {n}] for n={n}, got {g}"
            )
        base, rem = divmod(n, g)
        bounds = [0]
        for i in range(g):
            bounds.append(bounds[-1] + base + (1 if i < rem else 0))
        return cls(n=n, bounds=tuple(bounds))

    @classmethod
    def balanced(
        cls,
        n: int,
        g: int,
        *,
        row_cost: int,
        lead_rows: int = 0,
        lead_cost: int = 0,
    ) -> "ShardPlan":
        """Plan whose shards cost the same, to within one row if it can.

        Every row costs ``row_cost``, and each of the first ``lead_rows``
        rows costs ``lead_cost`` more (integers, ``row_cost >= 1``).  The
        leading rows are held by the *owners*, the shards starting below
        ``lead_rows``; no plan here has more owners than
        :meth:`contiguous`, because each owner costs the sharded trainer
        a blocking round trip per step.

        Of the plans keeping that cap, this returns one whose shard costs
        span the narrowest range no narrower than one leading row
        (``row_cost + lead_cost``), and of those one with the lowest
        maximum cost; each bound, from the last one back, is the lowest
        that keeps the range.  The range is one leading row unless the
        cap binds.  Every shard holds at least one row, and when every
        row costs the same the plan *is* :meth:`contiguous`.
        """
        base = cls.contiguous(n, g)
        lead_rows, lead_cost = int(lead_rows), int(lead_cost)
        if row_cost < 1 or lead_cost < 0 or not 0 <= lead_rows <= n:
            raise ConfigurationError(
                f"need row_cost >= 1, lead_cost >= 0 and lead_rows in "
                f"[0, {n}]; got {row_cost}, {lead_cost}, {lead_rows}"
            )
        if not lead_cost or lead_rows in (0, n):
            return base  # every row costs the same
        cap = sum(1 for a in base.bounds[:-1] if a < lead_rows)
        cost = _CumulativeCost(n, int(row_cost), lead_rows, lead_cost)
        dearest = cost.row + cost.extra  # no plan's maximum is below it

        # Level j's pair bounds every ``bounds[j]`` that j non-empty
        # shards, each costing ``low`` to ``low + width``, can reach: one
        # interval, because ``low + width`` is at least one row's cost.
        # Both ends grow with ``low``, so the ``low`` that fit form one
        # run; bisect for its start on the upper ends alone.
        def levels(low: int, width: int) -> list[tuple[int, int]]:
            a = b = 0
            out = []
            for j in range(1, g + 1):
                a = cost.first_at_least(cost(a) + max(low, 1))
                if j == cap:
                    a = max(a, lead_rows)
                b = cost.last_at_most(cost(b) + low + width)
                out.append((a, b))
            return out

        def reaches(low: int, width: int) -> bool:
            ends = levels(low, width)
            return ends[-1][1] == n and ends[cap - 1][1] >= lead_rows

        def least(fits: Any, lo: int, hi: int) -> int:
            while lo < hi:
                mid = (lo + hi) // 2
                lo, hi = (lo, mid) if fits(mid) else (mid + 1, hi)
            return lo

        def lowest(width: int) -> int:
            return least(
                lambda low: reaches(low, width), dearest - width, cost(n)
            )

        def fits(width: int) -> bool:
            return all(a <= b for a, b in levels(lowest(width), width))

        # A wider window admits every plan a narrower one does.
        width = least(fits, dearest, cost(n))
        low = lowest(width)
        # Walk back from ``n``: each bound is the lowest in its level that
        # keeps the next shard's cost inside the window.
        bounds = [n]
        for a, _ in reversed(levels(low, width)[:-1]):
            after = cost(bounds[-1]) - low - width
            bounds.append(max(a, cost.first_at_least(after)))
        return cls(n=n, bounds=(0, *reversed(bounds)))

    # -------------------------------------------------------------- queries
    @property
    def g(self) -> int:
        """Number of shards."""
        return len(self.bounds) - 1

    @property
    def sizes(self) -> tuple[int, ...]:
        """Rows per shard; sums to ``n``."""
        return tuple(b - a for a, b in zip(self.bounds, self.bounds[1:]))

    @property
    def slices(self) -> tuple[slice, ...]:
        """Row slice of each shard."""
        return tuple(slice(a, b) for a, b in zip(self.bounds, self.bounds[1:]))

    def shard_of(self, index: int) -> int:
        """The shard owning global row ``index``."""
        if not 0 <= index < self.n:
            raise ConfigurationError(
                f"index must be in [0, {self.n}), got {index}"
            )
        return int(np.searchsorted(self.bounds, index, side="right")) - 1

    def localize(
        self, idx: np.ndarray
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Split global row indices by owning shard.

        Parameters
        ----------
        idx:
            1-D array of global indices in ``[0, n)``.

        Returns
        -------
        One ``(positions, local)`` pair per shard: ``positions`` are the
        positions within ``idx`` owned by that shard and ``local`` the
        corresponding shard-local row indices; both empty for shards that
        own none of ``idx``.  Scatter/gather round-trips use ``positions``
        to reassemble results in the order of ``idx``.
        """
        idx = np.asarray(idx)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n):
            raise ConfigurationError(
                f"indices must be in [0, {self.n})"
            )
        owners = np.searchsorted(self.bounds, idx, side="right") - 1
        out = []
        for s in range(self.g):
            positions = np.nonzero(owners == s)[0]
            out.append((positions, idx[positions] - self.bounds[s]))
        return out


@dataclass(frozen=True)
class _CumulativeCost:
    """Cost of rows ``[0, k)`` when every row costs ``row`` and each of
    the first ``lead`` rows ``extra`` more, with its two inverses over
    ``k`` in ``[0, n]``."""

    n: int
    row: int
    lead: int
    extra: int

    def __call__(self, k: int) -> int:
        return self.row * k + self.extra * min(k, self.lead)

    def first_at_least(self, t: int) -> int:
        """Least ``k`` with ``cost(k) >= t``; ``n + 1`` when none."""
        head = (self.row + self.extra) * self.lead
        if t <= head:
            k = -(-max(t, 0) // (self.row + self.extra))
        else:
            k = self.lead + -(-(t - head) // self.row)
        return min(k, self.n + 1)

    def last_at_most(self, t: int) -> int:
        """Greatest ``k <= n`` with ``cost(k) <= t`` (``t >= 0``)."""
        head = (self.row + self.extra) * self.lead
        if t < head:
            k = t // (self.row + self.extra)
        else:
            k = self.lead + (t - head) // self.row
        return min(k, self.n)
