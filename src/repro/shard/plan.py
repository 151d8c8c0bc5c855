"""Partitioning of the ``n`` training centers into ``g`` contiguous shards.

A :class:`ShardPlan` is the static description of the data-parallel layout
modelled by :mod:`repro.device.cluster`: shard ``i`` owns the contiguous
center rows ``[bounds[i], bounds[i+1])`` together with the matching rows of
the weight matrix ``alpha``.  Contiguity keeps every per-shard array a
zero-copy slice of the source on the NumPy backend and makes ownership
queries (:meth:`shard_of`, :meth:`localize`) a binary search.

Two constructors balance the shards by cost.  :meth:`ShardPlan.contiguous`
prices every row the same, so shard sizes differ by at most one row.
:meth:`ShardPlan.balanced` lets the leading rows cost more and gives
them all to shard 0: the sharded trainer holds the EigenPro subsample
first, and shard 0 also runs the correction on it
(:mod:`repro.shard.trainer`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = ["ShardPlan"]


@dataclass(frozen=True)
class ShardPlan:
    """Contiguous partition of ``n`` rows into ``g`` shards, balanced by
    cost (:meth:`contiguous`: every row costs the same; :meth:`balanced`:
    the leading rows cost more, and shard 0 holds them all).

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
        """Plan whose shard 0 holds the leading rows and no shard costs
        more than it must.

        Every row costs ``row_cost``, and each of the first ``lead_rows``
        rows costs ``lead_cost`` more (integers, ``row_cost >= 1``).
        Shard 0 holds ``k >= lead_rows`` rows, the other ``g - 1``
        shards split the remaining ``n - k`` as :meth:`contiguous` does,
        and ``k`` minimizes the largest shard cost, ties going to the
        largest ``k``.  Every shard holds at least one row, so
        ``lead_rows`` may not exceed ``n - g + 1``.  When every row costs
        the same and ``lead_rows <= ceil(n / g)`` the plan *is*
        :meth:`contiguous`.
        """
        n, g = int(n), int(g)
        base = cls.contiguous(n, g)
        c, lead, e = int(row_cost), int(lead_rows), int(lead_cost)
        if c < 1 or e < 0 or not 0 <= lead <= n - g + 1:
            raise ConfigurationError(
                f"need row_cost >= 1, lead_cost >= 0 and lead_rows in "
                f"[0, {n - g + 1}] for n={n}, g={g}; got {c}, {e}, {lead}"
            )
        if g == 1:
            return base
        lo, hi = max(lead, 1), n - g + 1

        def top(k: int) -> int:  # the largest shard cost
            return max(c * k + e * lead, c * -(-(n - k) // (g - 1)))

        # The least k at which shard 0 costs at least every other shard:
        # ceil((n - k) / (g - 1)) <= k + floor(e * lead / c).
        k = -(-(n - (g - 1) * (e * lead // c)) // g)
        k = min(
            {min(max(j, lo), hi) for j in (k - 1, k)},
            key=lambda j: (top(j), -j),
        )
        rest = cls.contiguous(n - k, g - 1).bounds
        return cls(n=n, bounds=(0, *(k + b for b in rest)))

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
