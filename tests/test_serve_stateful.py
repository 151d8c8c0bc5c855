"""Stateful property test of the serving engine's request lifecycle.

A Hypothesis :class:`~hypothesis.stateful.RuleBasedStateMachine` drives
one thread-transport ``g=1`` :class:`~repro.serve.ModelServer` through
interleavings of submits (with priorities and short deadlines), caller
timeouts and cancels, injected tick failures and ``close(drain=True |
False)``, then checks the two lifecycle invariants:

- every admitted future resolves exactly once (its done-callbacks run
  once — a cancel, a shed, a failure or a result, never two);
- every admitted request is counted exactly once:
  ``admitted == serve/requests + serve/shed_requests +
  serve/abandoned_requests + serve/failed_requests``.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeout

import numpy as np
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
from repro.serve import ModelServer, PredictRequest, ServeOptions
from repro.shard import ShardGroup

N, D, L = 61, 3, 2
_RNG = np.random.default_rng(17)
CENTERS = _RNG.standard_normal((N, D))
WEIGHTS = _RNG.standard_normal((N, L))
ROWS = _RNG.standard_normal((4, D))


class _FailingPending:
    def result(self):
        raise ShardError("injected async tick failure")


class ServeLifecycle(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.group = ShardGroup.build(
            CENTERS, WEIGHTS, g=1, kernel=GaussianKernel(bandwidth=2.0),
            transport="thread",
        )
        self.server = ModelServer(
            group=self.group,
            options=ServeOptions(max_retries=1, retry_backoff_s=0.0),
        )
        self.futures: list[Future] = []
        self.callbacks: dict[int, int] = {}
        self.lock = threading.Lock()
        #: Tick attempts still to fail, consumed by the wrapped group.
        self.failures = 0
        real_async = self.group.map_allreduce_async
        real_sync = self.group.map_allreduce

        def take_failure() -> bool:
            with self.lock:
                if self.failures:
                    self.failures -= 1
                    return True
                return False

        def flaky_async(*args, **kwargs):
            if take_failure():
                return _FailingPending()
            return real_async(*args, **kwargs)

        def flaky_sync(*args, **kwargs):
            if take_failure():
                raise ShardError("injected sync tick failure")
            return real_sync(*args, **kwargs)

        self.group.map_allreduce_async = flaky_async
        self.group.map_allreduce = flaky_sync

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

    @rule(attempts=st.integers(1, 2))
    def inject_tick_failure(self, attempts):
        """Fail the next ``attempts`` tick attempts: one is recovered by
        the retry, two exhaust ``max_retries=1``."""
        with self.lock:
            self.failures = attempts

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
