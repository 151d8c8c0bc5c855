"""Scheduling/QoS suite for the serving engine (:mod:`repro.serve`).

Covers the request-API redesign and the dispatcher's scheduling
policies: the typed :class:`~repro.serve.PredictRequest` /
:class:`~repro.serve.PredictResponse` vocabulary, priority-first cohort
formation, deadline shedding (``DeadlineExceeded`` before any shard
work), and the timeout-abandon bugfix (a timed-out caller's request
must not occupy cohort budget).
"""

from __future__ import annotations

import json
import os
import random
import re
import threading
from concurrent.futures import TimeoutError as FutureTimeout

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, DeadlineExceeded
from repro.kernels import GaussianKernel
from repro.observe import MetricsRegistry
from repro.serve import (
    ModelServer,
    PredictRequest,
    PredictResponse,
    ServeOptions,
)
from repro.shard import ProcessTransport, ShardGroup, sharded_predict

N, D, L = 167, 4, 3


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(13)
    centers = rng.standard_normal((N, D))
    weights = rng.standard_normal((N, L))
    kernel = GaussianKernel(bandwidth=2.0)
    x = rng.standard_normal((5, D))
    return kernel, centers, weights, x


@pytest.fixture()
def group(problem):
    kernel, centers, weights, _ = problem
    with ShardGroup.build(
        centers, weights, g=2, kernel=kernel, transport="thread"
    ) as g:
        yield g


needs_process = pytest.mark.skipif(
    not ProcessTransport.is_available(), reason="no fork-safe shared memory"
)


@pytest.fixture()
def process_group(problem):
    kernel, centers, weights, _ = problem
    with ShardGroup.build(
        centers, weights, g=2, kernel=kernel, transport="process"
    ) as g:
        yield g


# --------------------------------------------------------------------------
# Typed request/response API
# --------------------------------------------------------------------------


class TestRequestAPI:
    def test_defaults_and_auto_request_id(self):
        a = PredictRequest(rows=np.zeros((2, D)))
        b = PredictRequest(rows=np.zeros((2, D)))
        assert a.priority == 0 and a.deadline_s is None
        assert a.request_id and b.request_id and a.request_id != b.request_id

    def test_auto_request_ids_unique_and_unseeded(self):
        """Default ids are ``r-`` + 12 hex digits, unique, and not tied
        to the global :mod:`random` state a caller may seed."""
        def ids(k):
            return [PredictRequest(rows=np.zeros((1, D))).request_id
                    for _ in range(k)]

        many = ids(20_000)
        assert len(set(many)) == len(many)
        assert all(re.fullmatch(r"r-[0-9a-f]{12}", rid) for rid in many)
        random.seed(0)
        first = ids(3)
        random.seed(0)
        assert ids(3) != first

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_draws_its_own_request_ids(self):
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: report one id and leave at once
            try:
                rid = PredictRequest(rows=np.zeros((1, D))).request_id
                os.write(write_end, rid.encode())
            finally:
                os._exit(0)
        os.close(write_end)
        child_id = os.read(read_end, 64).decode()
        os.close(read_end)
        os.waitpid(pid, 0)
        assert child_id.startswith("r-")
        assert child_id != PredictRequest(rows=np.zeros((1, D))).request_id

    @pytest.mark.parametrize(
        "deadline", [0.0, -1.0, "soon", [1], True, float("nan"), "0.5"]
    )
    def test_nonpositive_deadline_rejected(self, deadline):
        """Anything but a positive number of seconds is refused."""
        with pytest.raises(ConfigurationError, match="deadline_s"):
            PredictRequest(rows=np.zeros((1, D)), deadline_s=deadline)

    def test_fractional_priority_rejected(self):
        with pytest.raises(ConfigurationError, match="priority"):
            PredictRequest(rows=np.zeros((1, D)), priority=1.5)

    @pytest.mark.parametrize(
        "priority", [float("nan"), float("inf"), True, "1"],
        ids=["nan", "inf", "bool", "str"],
    )
    def test_non_integral_priority_rejected(self, priority):
        with pytest.raises(ConfigurationError, match="priority"):
            PredictRequest(rows=np.zeros((1, D)), priority=priority)

    @pytest.mark.parametrize("rid", ["", 7])
    def test_bad_request_id_rejected(self, rid):
        with pytest.raises(ConfigurationError, match="request_id"):
            PredictRequest(rows=np.zeros((1, D)), request_id=rid)

    def test_response_as_dict_is_json_bitwise(self):
        values = np.array([[0.1, 1 / 3, np.pi], [1e-308, -7.5, 2.0]])
        resp = PredictResponse(
            values=values, run_id="run", request_id="r-1",
            queue_s=1e-4, batch_s=2e-4,
        )
        back = json.loads(json.dumps(resp.as_dict()))
        np.testing.assert_array_equal(
            np.asarray(back["values"], dtype=np.float64), values
        )
        assert set(back) == {
            "values", "run_id", "request_id", "queue_s", "batch_s",
        }

    def test_submit_request_resolves_to_response(self, problem, group):
        _, _, _, x = problem
        want = np.asarray(sharded_predict(group, x))
        server = ModelServer(group=group)
        try:
            req = PredictRequest(rows=x, priority=3)
            resp = server.submit_request(req).result(timeout=60)
        finally:
            server.close()
        assert isinstance(resp, PredictResponse)
        assert resp.request_id == req.request_id
        assert resp.run_id == server.run_id
        assert resp.queue_s >= 0 and resp.batch_s > 0
        np.testing.assert_array_equal(resp.values, want)

    def test_predict_request_and_raw_array_share_bits(self, problem, group):
        _, _, _, x = problem
        server = ModelServer(group=group)
        try:
            via_request = server.predict_request(
                PredictRequest(rows=x), timeout=60
            ).values
            via_array = server.predict_request(x, timeout=60).values
        finally:
            server.close()
        np.testing.assert_array_equal(via_request, via_array)


# --------------------------------------------------------------------------
# Deadline shedding
# --------------------------------------------------------------------------


class TestDeadlineShedding:
    def test_expired_request_sheds_without_a_tick(self, problem, group):
        _, _, _, x = problem
        metrics = MetricsRegistry()
        server = ModelServer(
            group=group, metrics=metrics,
            options=ServeOptions(batch_wait=5e-3),
        )
        try:
            doomed = [
                server.submit_request(
                    PredictRequest(rows=x, deadline_s=1e-6)
                )
                for _ in range(3)
            ]
            for f in doomed:
                exc = f.exception(timeout=30)
                assert isinstance(exc, DeadlineExceeded)
                assert "shed" in str(exc)
            # Admitted traffic on the same engine is unaffected.
            want = np.asarray(sharded_predict(group, x))
            np.testing.assert_array_equal(
                server.predict_request(x, timeout=60).values, want
            )
        finally:
            server.close()
        counters = metrics.snapshot()["counters"]
        assert counters.get("serve/shed_requests", 0) == len(doomed)
        # "No tick consumed": only the admitted request ever rode one.
        ticked = sum(metrics.histogram_values("serve/batch_requests"))
        assert ticked == 1

    def test_generous_deadline_is_served(self, problem, group):
        _, _, _, x = problem
        server = ModelServer(group=group)
        try:
            resp = server.predict_request(
                PredictRequest(rows=x, deadline_s=60.0), timeout=60
            )
        finally:
            server.close()
        np.testing.assert_array_equal(
            resp.values, np.asarray(sharded_predict(group, x))
        )

    def test_deadline_exceeded_is_a_shard_error(self):
        from repro.exceptions import ReproError, ShardError

        assert issubclass(DeadlineExceeded, ShardError)
        assert issubclass(DeadlineExceeded, ReproError)


# --------------------------------------------------------------------------
# Priority scheduling
# --------------------------------------------------------------------------


class TestPriorityScheduling:
    def _serve_order(self, group, x, priorities, *, max_batch_requests):
        """Deterministic scheduling probe: a plug request's tick is
        gated on an event, so every probe request is queued *behind* it
        when cohorts form — the completion order then reveals the
        dispatcher's scheduling, free of submit-timing races."""
        order: list[int] = []
        lock = threading.Lock()
        gate = threading.Event()
        first_tick = threading.Event()
        server = ModelServer(
            group=group,
            options=ServeOptions(
                batch_wait=0.0, max_batch_requests=max_batch_requests
            ),
        )
        # Gate the first tick at the server's one tick seam,
        # which local and worker ticks both pass through.
        real_tick = server._reduce_tick

        def gated_tick(*tick):
            if not first_tick.is_set():
                first_tick.set()
                gate.wait(timeout=30)
            return real_tick(*tick)

        server._reduce_tick = gated_tick
        try:
            plug = server.submit_request(x)  # rides the gated first tick
            assert first_tick.wait(timeout=30)
            futures = []
            for prio in priorities:
                fut = server.submit_request(
                    PredictRequest(rows=x, priority=prio)
                )
                fut.add_done_callback(
                    lambda _f, p=prio: (
                        lock.__enter__(), order.append(p), lock.__exit__(
                            None, None, None
                        )
                    )
                )
                futures.append(fut)
            gate.set()
            plug.result(timeout=60)
            for f in futures:
                f.result(timeout=60)
        finally:
            gate.set()
            server.close()
        return order

    def test_priority_beats_fifo_across_ticks(self, problem, group):
        """One request per tick: service order is priority order, not
        arrival order."""
        _, _, _, x = problem
        priorities = [0, 5, 1, 9]
        order = self._serve_order(
            group, x, priorities, max_batch_requests=1
        )
        assert order == sorted(priorities, reverse=True)

    def test_high_priority_rides_first_cohort(self, problem, group):
        """Cohort budget of two: the first tick carries the two
        high-priority requests even though they arrived last."""
        _, _, _, x = problem
        order = self._serve_order(
            group, x, [0, 0, 5, 5], max_batch_requests=2
        )
        assert order[:2] == [5, 5]

    @needs_process
    def test_priority_beats_fifo_across_ticks_on_workers(
        self, problem, process_group
    ):
        """The same probe on a process group: the worker path."""
        self.test_priority_beats_fifo_across_ticks(problem, process_group)

    @needs_process
    def test_high_priority_rides_first_cohort_on_workers(
        self, problem, process_group
    ):
        """The same probe on a process group: the worker path."""
        self.test_high_priority_rides_first_cohort(problem, process_group)

    def test_equal_priority_keeps_fifo(self, problem, group):
        _, _, _, x = problem
        server = ModelServer(
            group=group,
            options=ServeOptions(batch_wait=0.15, max_batch_requests=1),
        )
        order: list[str] = []
        lock = threading.Lock()
        try:
            futures = []
            for rid in ("first", "second", "third"):
                fut = server.submit_request(
                    PredictRequest(rows=x, request_id=rid)
                )
                fut.add_done_callback(
                    lambda _f, r=rid: (
                        lock.__enter__(), order.append(r), lock.__exit__(
                            None, None, None
                        )
                    )
                )
                futures.append(fut)
            for f in futures:
                f.result(timeout=60)
        finally:
            server.close()
        assert order == ["first", "second", "third"]


# --------------------------------------------------------------------------
# Timeout-abandon bugfix
# --------------------------------------------------------------------------


class TestTimeoutAbandon:
    def test_timed_out_request_leaves_the_cohort(self, problem, group):
        """predict_request(timeout=...) that fires while it is queued
        cancels the future: the dispatcher culls it at cohort formation
        (counted, no spans, no result) instead of serving a caller that
        already gave up."""
        _, _, _, x = problem
        metrics = MetricsRegistry()
        server = ModelServer(
            group=group, metrics=metrics,
            options=ServeOptions(batch_wait=0.2),
        )
        try:
            with pytest.raises((FutureTimeout, TimeoutError)):
                server.predict_request(x, timeout=1e-3)
            # A later caller is served normally on the same engine.
            np.testing.assert_array_equal(
                server.predict_request(x, timeout=60).values,
                np.asarray(sharded_predict(group, x)),
            )
        finally:
            server.close()
        counters = metrics.snapshot()["counters"]
        assert counters.get("serve/abandoned_requests", 0) >= 1
        # The abandoned request never rode a tick: every cohort request
        # accounted in the histogram was a served one.
        served = int(counters.get("serve/requests", 0))
        ticked = sum(metrics.histogram_values("serve/batch_requests"))
        assert ticked == served

    def test_timed_out_running_request_still_resolves(self, problem, group):
        """Once claimed by a tick the request is past cancelling; the
        caller's timeout raises but the future completes server-side
        (no InvalidStateError, no stuck dispatcher)."""
        _, _, _, x = problem
        server = ModelServer(group=group)
        try:
            fut = server.submit_request(x)
            with pytest.raises((FutureTimeout, TimeoutError)):
                fut.result(timeout=0)
            np.testing.assert_array_equal(
                fut.result(timeout=60).values,
                np.asarray(sharded_predict(group, x)),
            )
        finally:
            server.close()
