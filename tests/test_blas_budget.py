"""Per-worker BLAS thread budget of the process-backed shard transports.

Each worker process of the process and torchdist transports runs its
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
from repro.shard import ShardGroup, process_transport_available, transport_available
from repro.shard.trainer import _form_block_task as _ORIGINAL_FORM_TASK
from repro.shard.transport import process as process_module

needs_openblas = pytest.mark.skipif(
    blas_threads() is None, reason="numpy bundles no OpenBLAS on this build"
)
needs_process = pytest.mark.skipif(
    not process_transport_available(),
    reason="platform lacks fork-safe shared memory",
)

worker_transports = pytest.mark.parametrize(
    "transport",
    [
        pytest.param("process", marks=needs_process),
        pytest.param(
            "torchdist",
            marks=pytest.mark.skipif(
                not transport_available("torchdist"),
                reason="torch is not installed (transport 'torchdist' "
                "unavailable)",
            ),
        ),
    ],
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


def _report_torch_threads(worker):
    import torch

    return torch.get_num_threads()


def _group(g: int, transport: str) -> ShardGroup:
    rng = np.random.default_rng(0)
    return ShardGroup.build(
        rng.standard_normal((48, 3)), rng.standard_normal((48, 2)),
        g=g, transport=transport, kernel=GaussianKernel(bandwidth=2.0),
    )


def _assert_workers_report(group: ShardGroup, budget: int) -> None:
    assert group.worker_blas_threads == budget
    assert group.map(_report_blas_threads) == [budget] * group.g
    if group.transport.name == "torchdist":
        assert group.map(_report_torch_threads) == [budget] * group.g


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
        s=48, batch_size=32, seed=0, damping=0.5, checkpoint_every=2,
    )
    try:
        trainer.fit(x, y, epochs=2)
        assert flag.exists()  # the kill actually fired
        assert [(e.old_g, e.new_g) for e in trainer.recovery_log_] == [(2, 1)]
        assert budgets == [(2, 4), (1, 6)]
        _assert_workers_report(trainer.shard_group_, 6)
    finally:
        trainer.close()
