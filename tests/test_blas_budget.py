"""Per-worker BLAS thread budget of the process shard transport.

Each worker process of the process transport runs its
OpenBLAS with ``max(1, usable_cpus // (g + 1))`` threads, unless the
environment sets ``OPENBLAS_NUM_THREADS`` / ``OMP_NUM_THREADS``; the
parent and the thread transport keep their own count.  Workers report
their count back through module-level tasks, so every check here reads
the value the child actually runs with.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.backend import blas_threads, set_blas_threads
from repro.backend import threads as blas_module
from repro.exceptions import ConfigurationError
from repro.kernels import GaussianKernel
from repro.observe import MetricsRegistry, new_run_id
from repro.shard import ProcessTransport, ShardGroup
from repro.shard.trainer import _form_block_task as _ORIGINAL_FORM_TASK
from repro.shard.transport import process as process_module

needs_openblas = pytest.mark.skipif(
    blas_threads() is None, reason="numpy bundles no OpenBLAS on this build"
)
needs_process = pytest.mark.skipif(
    not ProcessTransport.is_available(),
    reason="platform lacks fork-safe shared memory",
)

worker_transports = pytest.mark.parametrize(
    "transport",
    [pytest.param("process", marks=needs_process)],
)

@pytest.fixture(autouse=True)
def _no_thread_env(monkeypatch):
    """Budgets below are computed from the CPU count unless a test sets
    the environment itself."""
    for name in process_module._THREAD_ENV:
        monkeypatch.delenv(name, raising=False)


def _fake_cpus(monkeypatch, n: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _expected_budget(g: int) -> int:
    return max(1, len(os.sched_getaffinity(0)) // (g + 1))


def _report_blas_threads(worker):
    return blas_threads()


def _group(g: int, transport: str) -> ShardGroup:
    rng = np.random.default_rng(0)
    return ShardGroup.build(
        rng.standard_normal((48, 3)), rng.standard_normal((48, 2)),
        g=g, transport=transport, kernel=GaussianKernel(bandwidth=2.0),
    )


def _assert_workers_report(group: ShardGroup, budget: int) -> None:
    assert group.worker_blas_threads == budget
    assert group.map(_report_blas_threads) == [budget] * group.g


# --------------------------------------------------------------------------
# repro.backend thread control
# --------------------------------------------------------------------------


@needs_openblas
def test_set_get_round_trip_restores_original():
    original = blas_threads()
    try:
        set_blas_threads(1)
        assert blas_threads() == 1
        set_blas_threads(original + 1)
        assert blas_threads() == original + 1
        set_blas_threads(np.int64(1))
        assert blas_threads() == 1
    finally:
        set_blas_threads(original)
    assert blas_threads() == original


@pytest.mark.parametrize("bad", [0, -1, 1.5, "2", None])
def test_set_rejects_non_positive_or_non_integer(bad):
    with pytest.raises(ConfigurationError):
        set_blas_threads(bad)


def test_no_bundled_openblas_is_a_no_op(monkeypatch):
    monkeypatch.setattr(blas_module, "_openblas", lambda: ())
    assert blas_threads() is None
    set_blas_threads(3)  # nothing to set, nothing raised


@pytest.mark.parametrize(
    "g, budget", [(1, 6), (2, 4), (3, 3), (5, 2), (11, 1), (40, 1)]
)
def test_budget_splits_usable_cpus_over_workers_and_parent(
    monkeypatch, g, budget
):
    _fake_cpus(monkeypatch, 12)
    assert process_module._worker_blas_budget(g) == budget


@pytest.mark.parametrize(
    "env, budget",
    [
        ({"OPENBLAS_NUM_THREADS": "3"}, 3),
        ({"OMP_NUM_THREADS": "5"}, 5),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "5"}, 2),
        ({"OPENBLAS_NUM_THREADS": "auto"}, 4),  # unusable → computed
        ({"OMP_NUM_THREADS": "0"}, 4),
    ],
)
def test_budget_env_precedence(monkeypatch, env, budget):
    _fake_cpus(monkeypatch, 12)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert process_module._worker_blas_budget(2) == budget


# --------------------------------------------------------------------------
# Worker processes
# --------------------------------------------------------------------------


@needs_openblas
@worker_transports
@pytest.mark.parametrize("g", [1, 2])
def test_each_worker_runs_with_the_budget(transport, g):
    with _group(g, transport) as group:
        _assert_workers_report(group, _expected_budget(g))


@needs_openblas
@needs_process
def test_spawned_workers_get_the_budget():
    rng = np.random.default_rng(0)
    with ShardGroup.build(
        rng.standard_normal((32, 3)), g=2, transport="process",
        start_method="spawn",
    ) as group:
        _assert_workers_report(group, _expected_budget(2))


@needs_openblas
@needs_process
def test_parent_count_unchanged_by_build_and_close():
    before = blas_threads()
    group = _group(2, "process")
    try:
        assert blas_threads() == before
        group.map(_report_blas_threads)
        assert blas_threads() == before
    finally:
        group.close()
    assert blas_threads() == before


@needs_openblas
def test_thread_transport_has_no_budget():
    before = blas_threads()
    with _group(2, "thread") as group:
        assert group.worker_blas_threads is None
        assert group.map(_report_blas_threads) == [before, before]
    assert blas_threads() == before


@needs_openblas
@worker_transports
@pytest.mark.parametrize("name", process_module._THREAD_ENV)
def test_explicit_environment_count_is_respected(monkeypatch, transport, name):
    # Differs from the computed budget on any host (at most cpus // 3).
    explicit = len(os.sched_getaffinity(0)) + 1
    monkeypatch.setenv(name, str(explicit))
    before = blas_threads()
    with _group(2, transport) as group:
        _assert_workers_report(group, explicit)
    assert blas_threads() == before


def test_run_id_records_parent_blas_threads():
    run_id = new_run_id(commit="c")
    assert run_id["blas_threads"] == blas_threads()
    snap = MetricsRegistry().snapshot()
    assert snap["run_id"]["blas_threads"] == blas_threads()


# --------------------------------------------------------------------------
# Elastic recovery
# --------------------------------------------------------------------------

# Kill-once injection (as in ``test_failure_injection.py``): the dying
# worker drops a flag file first, so the rebuilt group's fresh forks
# serve normally.
_KILL_FLAG_ENV = "REPRO_TEST_BUDGET_KILL_FLAG"
_FORM_CALLS = {"n": 0}


def _form_block_kill_once_task(worker, xb, xb_sq_norms):
    _FORM_CALLS["n"] += 1
    flag = os.environ.get(_KILL_FLAG_ENV)
    if (
        flag
        and worker.shard_id == 1
        and _FORM_CALLS["n"] > 2
        and not os.path.exists(flag)
    ):
        with open(flag, "w") as fh:
            fh.write("1")
        os._exit(7)
    return _ORIGINAL_FORM_TASK(worker, xb, xb_sq_norms)


@needs_openblas
@needs_process
def test_elastic_rebuild_recomputes_budget(tmp_path, monkeypatch):
    from repro.shard import ShardedEigenPro2
    from repro.shard import trainer as shard_trainer

    _fake_cpus(monkeypatch, 12)
    budgets = []
    real_budget = process_module._worker_blas_budget

    def recording_budget(g):
        budgets.append((g, real_budget(g)))
        return budgets[-1][1]

    monkeypatch.setattr(process_module, "_worker_blas_budget", recording_budget)
    flag = tmp_path / "killed.flag"
    monkeypatch.setenv(_KILL_FLAG_ENV, str(flag))
    monkeypatch.setattr(
        shard_trainer, "_form_block_task", _form_block_kill_once_task
    )
    rng = np.random.default_rng(0)
    x = rng.standard_normal((240, 8))
    y = np.tanh(x @ rng.standard_normal((8, 3)))
    trainer = ShardedEigenPro2(
        GaussianKernel(bandwidth=2.0), n_shards=2, transport="process",
        s=48, batch_size=32, seed=0, damping=0.5,
    )
    try:
        trainer.fit(x, y, epochs=2)
        assert flag.exists()  # the kill actually fired
        assert [(e.old_g, e.new_g) for e in trainer.recovery_log_] == [(2, 1)]
        assert budgets == [(2, 4), (1, 6)]
        _assert_workers_report(trainer.shard_group_, 6)
    finally:
        trainer.close()


# --------------------------------------------------------------------------
# Kernel-block tiles over the process's compute threads
# --------------------------------------------------------------------------

#: A tile of 2 rows of the 512-column blocks below: every block is tiled.
_TILE_BYTES = 2 * 512 * 8


def _tiled_block():
    """A tiled Gaussian block and its single-pass reference."""
    from repro.backend import NumpyBackend
    from repro.kernels.pairwise import sq_euclidean_distances

    rng = np.random.default_rng(11)
    x, z = rng.standard_normal((40, 5)), rng.standard_normal((512, 5))
    kernel = GaussianKernel(bandwidth=2.0)
    ref = NumpyBackend()._apply_profile(
        sq_euclidean_distances(x, z), *kernel.fused_spec
    )
    return kernel(x, z), ref


def _tile_threads() -> list[str]:
    import threading

    return sorted(
        t.name for t in threading.enumerate() if t.name.startswith("repro-tile")
    )


def _tiled_block_task(worker):
    block, ref = _tiled_block()
    return bool(np.array_equal(block, ref)), blas_threads(), _tile_threads()


def _map_within(group: ShardGroup, fn, timeout: float = 60.0) -> list:
    """``group.map(fn)``, failing instead of hanging past ``timeout``."""
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(1)
    try:
        return pool.submit(group.map, fn).result(timeout=timeout)
    finally:
        pool.shutdown(wait=False)


@pytest.fixture
def small_tiles(monkeypatch):
    from repro.backend import numpy_backend

    monkeypatch.setattr(numpy_backend, "_TILE_BYTES", _TILE_BYTES)


@pytest.fixture
def restore_blas_threads():
    original = blas_threads()
    yield original
    set_blas_threads(original)


@needs_openblas
@needs_process
def test_fork_after_parent_used_the_pool_forms_tiled_blocks(
    monkeypatch, small_tiles, restore_blas_threads
):
    # The parent's pool has the size the children's budget asks for, so
    # only the fork hook keeps a child from reusing it.
    set_blas_threads(4)
    block, ref = _tiled_block()
    np.testing.assert_array_equal(block, ref)
    assert blas_module._POOL[0] == 3
    pid = os.fork()
    if pid == 0:  # the child must not hold the parent's pool
        os._exit(0 if blas_module._POOL is None else 1)
    assert os.waitpid(pid, 0)[1] == 0
    _fake_cpus(monkeypatch, 12)  # g=2 → worker budget 4
    with _group(2, "process") as group:
        reports = _map_within(group, _tiled_block_task)
    for equal, budget, helpers in reports:
        assert equal
        assert budget == 4
        assert helpers  # the child built a pool of its own


@needs_openblas
@needs_process
def test_process_workers_at_budget_one_start_no_helpers(
    monkeypatch, small_tiles
):
    _fake_cpus(monkeypatch, 2)  # g=2 → worker budget 1
    with _group(2, "process") as group:
        assert group.worker_blas_threads == 1
        reports = _map_within(group, _tiled_block_task)
    assert reports == [(True, 1, [])] * 2


def _record_threads(calls: list):
    import threading

    return lambda i: calls.append((i, threading.get_ident()))


@needs_openblas
def test_one_blas_thread_runs_every_tile_on_the_caller(restore_blas_threads):
    import threading

    set_blas_threads(1)
    calls: list = []
    blas_module.run_tiles(16, _record_threads(calls))
    assert sorted(i for i, _ in calls) == list(range(16))
    assert {ident for _, ident in calls} == {threading.get_ident()}


def test_pool_follows_the_thread_budget(monkeypatch):
    for budget in (3, 2, 4):
        monkeypatch.setattr(blas_module, "blas_threads", lambda: budget)
        calls: list = []
        blas_module.run_tiles(32, _record_threads(calls))
        assert sorted(i for i, _ in calls) == list(range(32))
        assert blas_module._POOL[0] == budget - 1


@pytest.mark.parametrize("raiser", ["helper", "caller"])
def test_tile_error_reaches_the_caller_after_every_tile(monkeypatch, raiser):
    import threading
    import time

    monkeypatch.setattr(blas_module, "blas_threads", lambda: 2)
    caller = threading.get_ident()
    finished: list = []
    raised = threading.Event()

    def work(i):
        on_caller = threading.get_ident() == caller
        if on_caller == (raiser == "caller") and not raised.is_set():
            raised.set()
            time.sleep(0.05)  # the other thread is still mid-tile
            raise ValueError(f"tile {i}")
        time.sleep(0.01)
        finished.append(i)

    with pytest.raises(ValueError, match="tile") as info:
        blas_module.run_tiles(12, work)
    failed = int(str(info.value).split()[-1])
    # Every other tile was done by the time the error surfaced.
    assert sorted(finished + [failed]) == list(range(12))


def test_concurrent_callers_under_changing_budgets(monkeypatch, small_tiles):
    import sys
    import threading

    # Each caller thread sees its own budget, so the shared pool is
    # resized under the others' feet.
    monkeypatch.setattr(
        blas_module, "blas_threads", lambda: 2 + threading.get_ident() % 3
    )
    block_ref = _tiled_block()[1]
    errors: list = []

    def caller():
        try:
            for _ in range(30):
                runs = [0] * 64

                def work(i):
                    runs[i] += 1

                blas_module.run_tiles(64, work)
                assert runs == [1] * 64  # every tile exactly once
            block, _ = _tiled_block()
            assert np.array_equal(block, block_ref)
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=caller) for _ in range(6)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert errors == []
