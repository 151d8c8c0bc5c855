#!/usr/bin/env python3
"""Self-test of the benchmark at tiny shapes (about a minute).

Run from the repository root::

    python3 perfbench/selftest.py

For every workload, untraced and traced, it runs ``run.main`` on tiny
inputs and asserts that the last line of output is the result object,
that every metric ``BENCHMARK.json`` names is emitted with its unit and a
finite value, that all outputs were correct, and that no child process
outlived the run.  It also asserts that a
different seed gives different inputs but the same metric names, and the
same seed the same inputs.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402 - needs the path above
from workloads import FitShape, ServeShape, fit_inputs, workloads  # noqa: E402

TINY_FIT = FitShape(
    n=300, n_test=60, d=8, l=3, epochs=2, probe_requests=12, probe_rows=8,
)
TINY_SHARDED = FitShape(
    n=300, n_test=60, d=8, l=3, epochs=2, batch_size=64, g=2,
    transport="process", probe_requests=12, probe_rows=8,
)
TINY_SERVE = ServeShape(
    fit=FitShape(n=300, n_test=60, d=8, l=3, epochs=1, batch_size=64),
    requests=30,
)
TINY = workloads(TINY_FIT, TINY_SHARDED, TINY_SERVE)


def run_tiny(workload: str, seed: int, trace: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(
            ["--workload", workload, "--seed", str(seed), "--seconds", "0",
             "--trace", str(trace)],
            table=TINY,
        )
    lines = out.getvalue().strip().splitlines()
    assert code == 0, f"{workload} trace={trace}: exit {code}\n{out.getvalue()}"
    try:
        os.waitpid(-1, os.WNOHANG)
        raise AssertionError(f"{workload} trace={trace}: a child process outlived the run")
    except ChildProcessError:
        pass  # no child left, running or unreaped
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True and result["failed"] == 0, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    return result["metrics"]


def check_names(metrics: dict, trace: int, label: str) -> None:
    want = run.expected_metrics(bool(trace))
    got = {name: m["unit"] for name, m in metrics.items()}
    assert got == want, f"{label}: {sorted(got.items())} != {sorted(want.items())}"
    for name, m in metrics.items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), (
            f"{label}: {name} = {m['value']!r}"
        )


def main() -> int:
    for workload in TINY:
        for trace in (0, 1):
            label = f"{workload} trace={trace}"
            check_names(run_tiny(workload, 1, trace), trace, label)
            print(f"ok  {label}: every metric emitted with its unit")
        names = set(run_tiny(workload, 2, 0))
        assert names == set(run.expected_metrics(False)), workload
        print(f"ok  {workload}: seed 2 emits the same metric names")

    for shape in (TINY_FIT, TINY_SERVE.fit):
        a, b, again = fit_inputs(shape, 1), fit_inputs(shape, 2), fit_inputs(shape, 1)
        assert not np.array_equal(a[0], b[0]), "seed does not change inputs"
        assert all(np.array_equal(u, v) for u, v in zip(a, again)), (
            "the same seed gives different inputs"
        )
    print("ok  seeds: a new seed changes the inputs, the same seed repeats them")
    return 0


if __name__ == "__main__":
    sys.exit(main())
