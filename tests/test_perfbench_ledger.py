"""The benchmark ledger's contract with the program.

``perfbench/ledger.py`` times a fixed set of entry points by swapping
attributes on their owners (``owner.__dict__[attr]``), so the program
must keep each of them defined directly on the named owner, and must
not route its own internal dispatch through the timed public methods
(or a step would be counted twice).  This suite loads the ledger
read-only from its file and pins both halves of that contract.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.kernels import GaussianKernel
from repro.shard import ShardedEigenPro2, resolve_transport

LEDGER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "ledger.py"


@pytest.fixture(scope="module")
def ledger_module():
    spec = importlib.util.spec_from_file_location(
        "_perfbench_ledger_under_test", LEDGER_PATH
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _owner(module_name: str, class_name: str | None):
    module = importlib.import_module(module_name)
    return module if class_name is None else getattr(module, class_name)


def _snapshot(entry_points) -> list:
    out = []
    for module_name, class_name, attr, _ in entry_points:
        owner = _owner(module_name, class_name)
        out.append(
            getattr(owner, attr) if class_name is None else owner.__dict__[attr]
        )
    return out


def test_entry_points_live_on_their_owners(ledger_module):
    transports = [resolve_transport(t) for t in ("thread", "process")]
    for module_name, class_name, attr, name in ledger_module.ENTRY_POINTS:
        owner = _owner(module_name, class_name)
        if class_name is None:
            assert callable(getattr(owner, attr)), name
            continue
        assert attr in owner.__dict__, f"{name}: {class_name}.{attr}"
        if attr == "build":
            assert isinstance(owner.__dict__[attr], classmethod), name
        # A transport overriding a timed dispatch method would escape
        # the wrapper installed on the base class.
        if name == "shard.dispatch":
            for cls in transports:
                assert attr not in cls.__dict__, f"{cls.__name__}.{attr}"


def test_sharded_fit_dispatch_counts(ledger_module):
    """Two epochs of n = 300 rows at m = 64 over g = 2 thread shards:
    ten steps, each one block formation and one fused contraction
    (two dispatches) and one all-reduce, on one engine build."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((300, 6))
    y = np.tanh(x @ rng.standard_normal((6, 2)))
    before = _snapshot(ledger_module.ENTRY_POINTS)
    ledger = ledger_module.Ledger()
    with ledger.installed():
        with ShardedEigenPro2(
            GaussianKernel(bandwidth=2.5), n_shards=2, transport="thread",
            batch_size=64, seed=0,
        ) as trainer:
            trainer.fit(x, y, epochs=2)
    assert ledger.count("shard.group_build") == 1
    assert ledger.count("shard.dispatch") == 20
    assert ledger.count("shard.allreduce") == 10
    assert _snapshot(ledger_module.ENTRY_POINTS) == before
