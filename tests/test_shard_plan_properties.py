"""Property-based tests for :class:`repro.shard.ShardPlan`.

The plan is the static foundation the whole transport layer trusts: every
transport slices centers/weights by ``plan.slices`` and reassembles
scatter/gather round-trips by ``plan.localize``.  Hypothesis pins the
invariants over the full (n, g) lattice — balanced ragged tails, the
n < g rejection, and exact global↔local index round-trips — rather than
the handful of fixed cases in ``tests/test_shard_parity.py``.  The
cost-balanced constructor (:meth:`ShardPlan.balanced`) is pinned the same
way, and against an exhaustive search over every plan of a small ``n``
whose shard 0 holds the lead rows.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cost import exact_improved_overhead_ops, exact_sgd_ops
from repro.exceptions import ConfigurationError
from repro.shard import ShardPlan

SETTINGS = settings(max_examples=120, deadline=None)


@st.composite
def n_and_g(draw):
    n = draw(st.integers(min_value=1, max_value=257))
    g = draw(st.integers(min_value=1, max_value=n))
    return n, g


@st.composite
def plan_and_indices(draw):
    n, g = draw(n_and_g())
    idx = draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1),
            min_size=0,
            max_size=64,
        )
    )
    return ShardPlan.contiguous(n, g), np.asarray(idx, dtype=np.intp)


class TestPartitionProperties:
    @SETTINGS
    @given(n_and_g())
    def test_slices_cover_range_exactly_once(self, ng):
        """The slices tile [0, n): every row appears in exactly one
        shard, in order."""
        n, g = ng
        plan = ShardPlan.contiguous(n, g)
        rows = np.concatenate([np.arange(n)[s] for s in plan.slices])
        np.testing.assert_array_equal(rows, np.arange(n))

    @SETTINGS
    @given(n_and_g())
    def test_bounds_and_sizes_consistent(self, ng):
        n, g = ng
        plan = ShardPlan.contiguous(n, g)
        assert plan.g == g
        assert plan.bounds[0] == 0 and plan.bounds[-1] == n
        assert list(plan.bounds) == sorted(plan.bounds)
        assert sum(plan.sizes) == n
        assert len(plan.sizes) == g

    @SETTINGS
    @given(n_and_g())
    def test_balanced_even_with_ragged_tail(self, ng):
        """Shard sizes differ by at most one row, however ragged n/g is,
        and no shard is empty (g <= n)."""
        n, g = ng
        sizes = ShardPlan.contiguous(n, g).sizes
        assert max(sizes) - min(sizes) <= 1
        assert min(sizes) >= 1
        # The ragged remainder lands on the leading shards.
        assert list(sizes) == sorted(sizes, reverse=True)

    @SETTINGS
    @given(n_and_g())
    def test_shard_of_agrees_with_slices(self, ng):
        n, g = ng
        plan = ShardPlan.contiguous(n, g)
        for s, sl in enumerate(plan.slices):
            for i in {sl.start, sl.stop - 1}:
                assert plan.shard_of(i) == s

    @SETTINGS
    @given(st.integers(min_value=1, max_value=64), st.integers(min_value=1, max_value=64))
    def test_n_smaller_than_g_rejected(self, n, extra):
        """g cannot exceed n: an empty shard would break the transports'
        one-worker-per-shard contract; callers clamp first (as the
        sharded trainer does)."""
        with pytest.raises(ConfigurationError):
            ShardPlan.contiguous(n, n + extra)

    @SETTINGS
    @given(st.integers(min_value=1, max_value=64))
    def test_degenerate_counts_rejected(self, n):
        with pytest.raises(ConfigurationError):
            ShardPlan.contiguous(n, 0)
        with pytest.raises(ConfigurationError):
            ShardPlan.contiguous(0, 1)


class TestLocalizeProperties:
    @SETTINGS
    @given(plan_and_indices())
    def test_global_local_roundtrip(self, plan_idx):
        """localize splits any (unsorted, repeated) global index array so
        that local + bounds[shard] recovers the original in place."""
        plan, idx = plan_idx
        recovered = np.full(idx.shape, -1, dtype=idx.dtype)
        seen_positions = []
        for s, (positions, local) in enumerate(plan.localize(idx)):
            assert positions.shape == local.shape
            if local.size:
                assert local.min() >= 0
                assert local.max() < plan.sizes[s]
            recovered[positions] = local + plan.bounds[s]
            seen_positions.append(positions)
        np.testing.assert_array_equal(recovered, idx)
        # Each position is owned by exactly one shard.
        all_positions = np.concatenate(seen_positions)
        assert all_positions.size == idx.size
        assert np.unique(all_positions).size == idx.size

    @SETTINGS
    @given(plan_and_indices())
    def test_localize_owner_matches_shard_of(self, plan_idx):
        plan, idx = plan_idx
        for s, (positions, _) in enumerate(plan.localize(idx)):
            for p in positions[:8]:
                assert plan.shard_of(int(idx[p])) == s

    @SETTINGS
    @given(n_and_g())
    def test_out_of_range_rejected(self, ng):
        n, g = ng
        plan = ShardPlan.contiguous(n, g)
        with pytest.raises(ConfigurationError):
            plan.localize(np.array([n]))
        with pytest.raises(ConfigurationError):
            plan.localize(np.array([-1]))
        with pytest.raises(ConfigurationError):
            plan.shard_of(n)


# ---------------------------------------------------------------------------
# ShardPlan.balanced: rows cost ``c``, the first ``s`` rows ``c + e``.
# ---------------------------------------------------------------------------


@st.composite
def costed(draw, sizes=n_and_g()):
    n, g = draw(sizes)
    s = draw(st.integers(min_value=0, max_value=n - g + 1))
    c = draw(st.integers(min_value=1, max_value=10_000))
    e = draw(st.integers(min_value=0, max_value=10_000))
    return n, g, s, c, e


@st.composite
def small_n_and_g(draw):
    n = draw(st.integers(min_value=1, max_value=14))
    g = draw(st.integers(min_value=1, max_value=min(n, 4)))
    return n, g


def _balanced(n, g, s, c, e):
    return ShardPlan.balanced(n, g, row_cost=c, lead_rows=s, lead_cost=e)


def _costs(bounds, s, c, e):
    cum = [c * k + e * min(k, s) for k in bounds]
    return [b - a for a, b in zip(cum, cum[1:])]


class TestBalancedPlan:
    @SETTINGS
    @given(costed())
    def test_covers_rows_with_nonempty_shards(self, case):
        """Shard 0 holds every lead row, and every shard a row."""
        n, g, s, c, e = case
        plan = _balanced(n, g, s, c, e)
        assert plan.g == g
        assert plan.bounds[0] == 0 and plan.bounds[-1] == n
        assert sum(plan.sizes) == n
        assert min(plan.sizes) >= 1
        assert plan.bounds[1] >= s

    @SETTINGS
    @given(costed())
    def test_equal_row_costs_give_contiguous(self, case):
        """No extra lead cost, with no more lead rows than contiguous
        shard 0 holds: the bounds are exactly :meth:`contiguous`'s."""
        n, g, s, c, _ = case
        contiguous = ShardPlan.contiguous(n, g).bounds
        s = min(s, contiguous[1])
        assert _balanced(n, g, s, c, 0).bounds == contiguous
        assert _balanced(n, g, 0, c, 7).bounds == contiguous

    @settings(max_examples=300, deadline=None)
    @given(costed(sizes=small_n_and_g()))
    def test_matches_exhaustive_search(self, case):
        """Over every plan of a small ``n`` whose shard 0 holds ``k >= s``
        rows and whose other shards split the rest contiguously, none
        has a lower maximum cost, nor the same one at a larger ``k``."""
        n, g, s, c, e = case
        plan = _balanced(n, g, s, c, e)
        candidates = []
        for cut in itertools.combinations(range(1, n), g - 1):
            bounds = (0, *cut, n)
            k = bounds[1]
            rest = ShardPlan.contiguous(n - k, g - 1).bounds if g > 1 else (0,)
            if k >= s and bounds[1:] == tuple(k + b for b in rest):
                candidates.append(bounds)
        best = min(
            candidates, key=lambda b: (max(_costs(b, s, c, e)), -b[1])
        )
        assert plan.bounds == best

    def test_fit_sharded_shapes(self):
        """The ``fit-sharded`` benchmark workload: n=8000, d=32, l=10,
        m=256, s=2000, q=300, at its g=2 and at g=3, 4."""
        m, d, l, s, q = 256, 32, 10, 2000, 300

        def plan(g):
            return ShardPlan.balanced(
                8000, g,
                row_cost=exact_sgd_ops(1, m, d, l),
                lead_rows=s,
                lead_cost=exact_improved_overhead_ops(m, l, s, q) // s,
            )

        assert plan(2).bounds == (0, 3204, 8000)
        assert plan(3).bounds == (0, 2000, 5000, 8000)
        assert plan(4).bounds == (0, 2000, 4000, 6000, 8000)

    def test_rejects_bad_costs(self):
        with pytest.raises(ConfigurationError):
            ShardPlan.balanced(10, 2, row_cost=0)
        with pytest.raises(ConfigurationError):
            ShardPlan.balanced(10, 2, row_cost=1, lead_rows=3, lead_cost=-1)
        with pytest.raises(ConfigurationError):
            ShardPlan.balanced(10, 2, row_cost=1, lead_rows=11, lead_cost=1)
        # Shard 0 cannot hold more than n - g + 1 rows.
        assert ShardPlan.balanced(10, 3, row_cost=1, lead_rows=8).bounds == (
            0, 8, 9, 10,
        )
        with pytest.raises(ConfigurationError):
            ShardPlan.balanced(10, 3, row_cost=1, lead_rows=9)
        with pytest.raises(ConfigurationError):
            ShardPlan.balanced(10, 2, row_cost=1, lead_rows=10, lead_cost=1)
