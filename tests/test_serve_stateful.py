"""Stateful property test of the serving engine's request lifecycle.

A Hypothesis :class:`~hypothesis.stateful.RuleBasedStateMachine` drives
one ``g=1`` :class:`~repro.serve.ModelServer` through interleavings of
submits (with priorities and short deadlines), caller timeouts and
cancels, injected tick failures (at launch or at harvest; each fails
one tick once) and ``close(drain=True | False)``, then
checks the two lifecycle invariants:

- every admitted future resolves exactly once (its done-callbacks run
  once — a cancel, a shed, a failure or a result, never two);
- every admitted request is counted exactly once:
  ``admitted == serve/requests + serve/shed_requests +
  serve/abandoned_requests + serve/failed_requests``.

It runs on a thread group, whose ticks run on the dispatcher, and on a
process group, whose ticks go to the workers.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeout

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.exceptions import ShardError
from repro.kernels import GaussianKernel
from repro.serve import ModelServer, PredictRequest
from repro.shard import ProcessTransport, ShardGroup

N, D, L = 61, 3, 2
_RNG = np.random.default_rng(17)
CENTERS = _RNG.standard_normal((N, D))
WEIGHTS = _RNG.standard_normal((N, L))
ROWS = _RNG.standard_normal((4, D))


class _FailingPending:
    def result(self):
        raise ShardError("injected tick failure at harvest")


class ServeLifecycle(RuleBasedStateMachine):
    #: The thread transport serves these ticks on the dispatcher (the
    #: local path); :class:`ServeLifecycleOnWorkers` runs the machine
    #: over a process group, whose ticks go to the workers.
    transport = "thread"

    def __init__(self) -> None:
        super().__init__()
        self.group = ShardGroup.build(
            CENTERS, WEIGHTS, g=1, kernel=GaussianKernel(bandwidth=2.0),
            transport=self.transport,
        )
        self.server = ModelServer(group=self.group)
        self.futures: list[Future] = []
        self.callbacks: dict[int, int] = {}
        self.lock = threading.Lock()
        #: Where the next tick fails ("launch" or "harvest"), consumed by
        #: the wrapped tick seam (the one place local and worker ticks
        #: reach the group); ``None`` lets ticks through.
        self.failure: str | None = None
        real_tick = self.server._reduce_tick

        def take_failure() -> str | None:
            with self.lock:
                failure, self.failure = self.failure, None
                return failure

        def flaky_tick(inflight):
            failure = take_failure()
            if failure == "launch":
                raise ShardError("injected tick failure at launch")
            if failure == "harvest":
                return _FailingPending()
            return real_tick(inflight)

        self.server._reduce_tick = flaky_tick

    def _on_done(self, future: Future) -> None:
        with self.lock:
            self.callbacks[id(future)] += 1

    @rule(
        row=st.integers(0, len(ROWS) - 1),
        priority=st.integers(-2, 2),
        deadline_s=st.none() | st.floats(1e-5, 5e-3),
    )
    def submit(self, row, priority, deadline_s):
        request = PredictRequest(
            rows=ROWS[row], priority=priority, deadline_s=deadline_s
        )
        try:
            future = self.server.submit_request(request)
        except ShardError:
            assert self.server.closed
            return
        with self.lock:
            self.callbacks[id(future)] = 0
        future.add_done_callback(self._on_done)
        self.futures.append(future)

    @precondition(lambda self: self.futures)
    @rule(index=st.integers(0, 1_000), wait_s=st.sampled_from([0.0, 1e-4]))
    def time_out_and_cancel(self, index, wait_s):
        """A caller that gives up: a short wait, then cancel (the
        predict_request timeout discipline)."""
        future = self.futures[index % len(self.futures)]
        try:
            future.result(timeout=wait_s)
        except (FutureTimeout, TimeoutError):
            future.cancel()
        except Exception:
            pass  # shed or failed: resolved either way

    @rule(at=st.sampled_from(["launch", "harvest"]))
    def inject_tick_failure(self, at):
        """Fail the next tick once, at launch or at harvest: every
        request it carries fails."""
        with self.lock:
            self.failure = at

    @precondition(lambda self: not self.server.closed)
    @rule(drain=st.booleans())
    def close(self, drain):
        self.server.close(drain=drain)

    @invariant()
    def resolved_at_most_once(self):
        with self.lock:
            assert all(n <= 1 for n in self.callbacks.values())

    def teardown(self) -> None:
        try:
            self.server.close()
            for future in self.futures:
                assert future.done()
            with self.lock:
                assert all(n == 1 for n in self.callbacks.values())
            counters = self.server.stats()["counters"]
            accounted = sum(
                int(counters.get(f"serve/{name}", 0))
                for name in (
                    "requests", "shed_requests", "abandoned_requests",
                    "failed_requests",
                )
            )
            assert accounted == len(self.futures), counters
        finally:
            self.group.close()


ServeLifecycle.TestCase.settings = settings(
    max_examples=50, stateful_step_count=30, deadline=None
)
TestServeLifecycle = ServeLifecycle.TestCase


class ServeLifecycleOnWorkers(ServeLifecycle):
    transport = "process"


ServeLifecycleOnWorkers.TestCase.settings = ServeLifecycle.TestCase.settings
TestServeLifecycleOnWorkers = pytest.mark.skipif(
    not ProcessTransport.is_available(), reason="no fork-safe shared memory"
)(ServeLifecycleOnWorkers.TestCase)
