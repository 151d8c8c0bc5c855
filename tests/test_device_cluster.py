"""Tests for the multi-GPU cluster device model (Section-6 extension)."""

import pytest

from repro.core.resource import max_device_batch_size
from repro.device import (
    Interconnect,
    allreduce_time,
    multi_gpu,
    titan_xp,
)
from repro.exceptions import ConfigurationError


class TestAllreduce:
    def test_single_device_free(self):
        assert allreduce_time(Interconnect(), 1, 1e6) == 0.0

    def test_latency_grows_with_devices(self):
        net = Interconnect(latency_s=1e-4, bandwidth_scalars_per_s=1e10)
        assert allreduce_time(net, 16, 0) > allreduce_time(net, 2, 0)

    def test_bandwidth_term_scales_with_payload(self):
        net = Interconnect(latency_s=0.0, bandwidth_scalars_per_s=1e9)
        t1 = allreduce_time(net, 4, 1e6)
        t2 = allreduce_time(net, 4, 2e6)
        assert t2 == pytest.approx(2 * t1)

    def test_ring_traffic_factor(self):
        """Traffic is 2(g-1)/g payload traversals."""
        net = Interconnect(latency_s=0.0, bandwidth_scalars_per_s=1.0)
        assert allreduce_time(net, 2, 10.0) == pytest.approx(10.0)  # 2*1/2
        assert allreduce_time(net, 4, 10.0) == pytest.approx(15.0)  # 2*3/4

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            allreduce_time(Interconnect(), 0, 1.0)
        with pytest.raises(ConfigurationError):
            allreduce_time(Interconnect(), 2, -1.0)
        with pytest.raises(ConfigurationError):
            Interconnect(latency_s=-1.0)
        with pytest.raises(ConfigurationError):
            Interconnect(bandwidth_scalars_per_s=0.0)


class TestMultiGpu:
    def test_aggregates_resources(self):
        base = titan_xp().spec
        cluster = multi_gpu(base, 4).spec
        assert cluster.parallel_capacity == pytest.approx(
            4 * base.parallel_capacity
        )
        assert cluster.throughput == pytest.approx(4 * base.throughput)
        assert cluster.memory_scalars == pytest.approx(
            4 * base.memory_scalars
        )
        assert cluster.name == "titan-xp-x4"

    def test_single_device_identity_but_for_name(self):
        base = titan_xp().spec
        one = multi_gpu(base, 1).spec
        assert one.parallel_capacity == base.parallel_capacity
        assert one.launch_overhead_s == base.launch_overhead_s

    def test_sync_overhead_added(self):
        base = titan_xp().spec
        net = Interconnect(latency_s=1e-3, bandwidth_scalars_per_s=1e8)
        cluster = multi_gpu(base, 8, interconnect=net).spec
        assert cluster.launch_overhead_s > base.launch_overhead_s

    def test_accepts_simulated_device(self):
        cluster = multi_gpu(titan_xp(), 2)
        assert cluster.spec.name == "titan-xp-x2"

    def test_m_max_scales(self):
        n, d, l = 1_000_000, 440, 144
        single = max_device_batch_size(titan_xp(), n, d, l)
        quad = max_device_batch_size(multi_gpu(titan_xp(), 4), n, d, l)
        assert quad.m_max == pytest.approx(4 * single.m_max, rel=0.01)

    def test_epoch_speedup_below_linear_with_slow_network(self):
        n, d, l = 1_000_000, 440, 144
        slow = Interconnect(latency_s=5e-3, bandwidth_scalars_per_s=1e7)
        single = titan_xp()
        octo = multi_gpu(titan_xp(), 8, interconnect=slow)

        def epoch(dev):
            res = max_device_batch_size(dev, n, d, l)
            ops = (d + l) * res.m_max * n
            iters = -(-n // res.m_max)
            return dev.spec.epoch_time(ops, iters)

        speedup = epoch(single) / epoch(octo)
        assert 1.0 < speedup < 8.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            multi_gpu(titan_xp(), 0)

    def test_eigenpro2_trains_on_cluster(self, small_dataset):
        """End-to-end: the trainer consumes a cluster spec unchanged."""
        from repro.core.eigenpro2 import EigenPro2
        from repro.kernels import GaussianKernel

        ds = small_dataset
        cluster = multi_gpu(titan_xp(), 2)
        model = EigenPro2(
            GaussianKernel(bandwidth=2.0), device=cluster, seed=0
        )
        model.fit(ds.x_train, ds.y_train, epochs=2)
        assert cluster.elapsed > 0
        assert model.classification_error(ds.x_test, ds.labels_test) < 0.5


class TestRecoveryTime:
    def test_all_terms_contribute(self):
        from repro.device.cluster import recovery_time

        net = Interconnect(latency_s=1e-3, bandwidth_scalars_per_s=1e8)
        base = recovery_time(net, 4, weight_scalars=1e6)
        with_resident = recovery_time(
            net, 4, weight_scalars=1e6, resident_scalars=1e7
        )
        with_replay = recovery_time(
            net, 4, weight_scalars=1e6,
            replayed_iterations=10, iteration_time_s=0.5,
        )
        assert base > 0
        assert with_resident > base  # bigger resident share to move
        assert with_replay == pytest.approx(base + 5.0)  # 10 * 0.5s

    def test_restore_payload_scales_with_weights(self):
        from repro.device.cluster import recovery_time

        net = Interconnect(latency_s=0.0, bandwidth_scalars_per_s=1e8)
        t1 = recovery_time(net, 2, weight_scalars=1e6, worker_spawn_s=0.0)
        t2 = recovery_time(net, 2, weight_scalars=2e6, worker_spawn_s=0.0)
        assert t2 > t1

    def test_spawn_charged_once(self):
        from repro.device.cluster import recovery_time

        net = Interconnect(latency_s=0.0, bandwidth_scalars_per_s=1e12)
        slow = recovery_time(net, 8, weight_scalars=0.0, worker_spawn_s=1.0)
        fast = recovery_time(net, 8, weight_scalars=0.0, worker_spawn_s=0.0)
        assert slow - fast == pytest.approx(1.0)  # concurrent respawn

    def test_validation(self):
        from repro.device.cluster import recovery_time

        net = Interconnect()
        with pytest.raises(ConfigurationError):
            recovery_time(net, 1, weight_scalars=1.0)  # nothing to shrink to
        with pytest.raises(ConfigurationError):
            recovery_time(net, 2, weight_scalars=-1.0)
        with pytest.raises(ConfigurationError):
            recovery_time(net, 2, weight_scalars=1.0, replayed_iterations=-1)
        with pytest.raises(ConfigurationError):
            recovery_time(net, 2, weight_scalars=1.0, iteration_time_s=-0.1)
        with pytest.raises(ConfigurationError):
            recovery_time(net, 2, weight_scalars=1.0, worker_spawn_s=-0.1)
        with pytest.raises(ConfigurationError):
            recovery_time(net, 2, weight_scalars=1.0, resident_scalars=-1.0)
