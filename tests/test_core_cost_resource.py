"""Tests for the Table-1 cost model and Step-1 resource computation."""

import math

import pytest

from repro.core.cost import (
    exact_improved_overhead_ops,
    exact_original_overhead_ops,
    exact_sgd_ops,
    improved_eigenpro_cost,
    original_eigenpro_cost,
    overhead_fraction,
    sgd_cost,
)
from repro.core.resource import max_device_batch_size
from repro.device import DeviceSpec, titan_xp
from repro.exceptions import ConfigurationError

PAPER_EXAMPLE = dict(n=10**6, m=10**3, d=10**3, l=10**2, s=10**4, q=10**2)


class TestCostFormulas:
    def test_sgd(self):
        c = sgd_cost(n=100, m=10, d=5, l=2)
        assert c.computation == 100 * 10 * 7
        assert c.memory == 100 * (10 + 5 + 2)
        assert c.overhead_computation == 0

    def test_improved(self):
        c = improved_eigenpro_cost(n=100, m=10, d=5, l=2, s=20, q=4)
        assert c.overhead_computation == 20 * 10 * 4
        assert c.overhead_memory == 20 * 4
        assert c.computation == sgd_cost(100, 10, 5, 2).computation + 800

    def test_original(self):
        c = original_eigenpro_cost(n=100, m=10, d=5, l=2, q=4)
        assert c.overhead_computation == 100 * 10 * 4
        assert c.overhead_memory == 100 * 4

    def test_improved_beats_original_when_s_below_n(self):
        imp = improved_eigenpro_cost(**PAPER_EXAMPLE)
        orig = original_eigenpro_cost(
            n=PAPER_EXAMPLE["n"], m=PAPER_EXAMPLE["m"], d=PAPER_EXAMPLE["d"],
            l=PAPER_EXAMPLE["l"], q=PAPER_EXAMPLE["q"],
        )
        ratio = orig.overhead_computation / imp.overhead_computation
        assert ratio == pytest.approx(PAPER_EXAMPLE["n"] / PAPER_EXAMPLE["s"])

    def test_paper_realistic_overhead_below_one_percent(self):
        """Section 4's headline: at n=1e6, s=1e4, d,m~1e3, q,l~1e2 the
        improved overhead is < 1 % over SGD in computation and memory."""
        frac = overhead_fraction(**PAPER_EXAMPLE)
        assert frac < 0.01
        imp = improved_eigenpro_cost(**PAPER_EXAMPLE)
        base = sgd_cost(
            PAPER_EXAMPLE["n"], PAPER_EXAMPLE["m"], PAPER_EXAMPLE["d"],
            PAPER_EXAMPLE["l"],
        )
        assert imp.overhead_memory / base.memory < 0.01

    def test_original_overhead_not_negligible(self):
        """Same sizes: the *original* EigenPro overhead is ~10 %, which is
        why Section 4 exists."""
        orig = original_eigenpro_cost(
            n=PAPER_EXAMPLE["n"], m=PAPER_EXAMPLE["m"], d=PAPER_EXAMPLE["d"],
            l=PAPER_EXAMPLE["l"], q=PAPER_EXAMPLE["q"],
        )
        base = sgd_cost(
            PAPER_EXAMPLE["n"], PAPER_EXAMPLE["m"], PAPER_EXAMPLE["d"],
            PAPER_EXAMPLE["l"],
        )
        assert orig.overhead_computation / base.computation > 0.05

    def test_negative_dims_rejected(self):
        with pytest.raises(ConfigurationError):
            sgd_cost(-1, 1, 1, 1)
        with pytest.raises(ConfigurationError):
            improved_eigenpro_cost(1, 1, 1, 1, -1, 1)

    def test_exact_formulas(self):
        assert exact_sgd_ops(100, 5, 3, 2) == 5 * 100 * 3 + 5 * 100 * 2
        assert (
            exact_improved_overhead_ops(m=5, l=2, s=20, q=4)
            == 20 * 5 * 2 + 2 * 20 * 4 * 2
        )
        assert (
            exact_original_overhead_ops(n=100, m=5, l=2, q=4)
            == 100 * 5 * 2 + 2 * 100 * 4 * 2
        )
        # Same chain with n in place of s: the ratio is exactly n/s.
        assert exact_original_overhead_ops(
            n=100, m=5, l=2, q=4
        ) == 5 * exact_improved_overhead_ops(m=5, l=2, s=20, q=4)


class TestStep1BatchSizes:
    def test_m_compute_formula(self):
        spec = DeviceSpec(
            name="t", parallel_capacity=1e9, throughput=1e12,
            memory_scalars=1e12,
        )
        res = max_device_batch_size(spec, n=1000, d=99, l=1)
        # (d + l) * m_C * n = C_G  =>  m_C = 1e9 / (100 * 1000) = 10000.
        assert res.m_compute == 10_000

    def test_m_memory_formula(self):
        spec = DeviceSpec(
            name="t", parallel_capacity=1e18, throughput=1e12,
            memory_scalars=1_000_000,
        )
        res = max_device_batch_size(spec, n=1000, d=300, l=100)
        # (d + l + m_S) * n = S_G  =>  m_S = 1e6/1e3 - 400 = 600.
        assert res.m_memory == 600
        assert not res.compute_bound

    def test_m_max_is_min(self):
        spec = DeviceSpec(
            name="t", parallel_capacity=1e8, throughput=1e12,
            memory_scalars=1e7,
        )
        res = max_device_batch_size(spec, n=1000, d=50, l=50)
        assert res.m_max == min(res.m_compute, res.m_memory, 1000)

    def test_clamped_by_n(self):
        res = max_device_batch_size(titan_xp(), n=100, d=5, l=2)
        assert res.m_max == 100
        assert res.clamped_by_n

    def test_titan_xp_timit_anchor(self):
        """Paper Section 5.2: m*(k_G) ≈ 6500 saturates the Titan Xp on the
        1e5-point TIMIT subsample."""
        res = max_device_batch_size(titan_xp(), n=100_000, d=440, l=144)
        assert 5000 < res.m_max < 8000
        assert res.compute_bound

    def test_preconditioner_memory_charged(self):
        spec = DeviceSpec(
            name="t", parallel_capacity=1e18, throughput=1e12,
            memory_scalars=1_000_000,
        )
        with_precond = max_device_batch_size(
            spec, n=1000, d=300, l=100, s=1000, q=100
        )
        without = max_device_batch_size(spec, n=1000, d=300, l=100)
        assert with_precond.m_memory == without.m_memory - 100

    def test_memory_fraction(self):
        spec = DeviceSpec(
            name="t", parallel_capacity=1e18, throughput=1e12,
            memory_scalars=1_000_000,
        )
        res = max_device_batch_size(spec, n=1000, d=100, l=100, memory_fraction=0.5)
        assert res.m_memory == 300

    def test_too_small_device_rejected(self):
        spec = DeviceSpec(
            name="tiny", parallel_capacity=1e9, throughput=1e12,
            memory_scalars=100,
        )
        with pytest.raises(ConfigurationError, match="cannot hold"):
            max_device_batch_size(spec, n=1000, d=100, l=10)

    def test_degenerate_dims_rejected(self):
        with pytest.raises(ConfigurationError):
            max_device_batch_size(titan_xp(), n=0, d=10, l=1)

    def test_infinite_memory_device(self):
        spec = DeviceSpec(
            name="inf", parallel_capacity=1e9, throughput=1e12,
            memory_scalars=math.inf,
        )
        res = max_device_batch_size(spec, n=100, d=10, l=1)
        assert res.compute_bound
