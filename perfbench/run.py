#!/usr/bin/env python3
"""The repository benchmark: one workload per run, every metric by name.

Run from the repository root::

    python3 perfbench/run.py --workload fit-large-batch --seed 0 --seconds 5 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

- ``fit-large-batch`` — unsharded EigenPro 2.0 with analytic parameters;
- ``fit-sharded`` — ``ShardedEigenPro2`` on the process transport, g=2;
- ``serve-http`` — ``ModelServer`` behind ``ServeHTTPServer``, closed loop.

``--trace 0`` prints the end-to-end metrics of untraced runs; ``--trace 1``
prints the per-layer metrics of a traced run (and the traced-vs-untraced
overhead).  Human-readable lines come first; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  The exit code is 0 only when every output was correct.

The program is imported from ``src/`` next to this directory; nothing is
installed, and thread counts (BLAS or otherwise) are left as the
environment sets them and recorded in the host line.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def openblas_threads() -> int | None:
    """Effective thread count of the OpenBLAS bundled with numpy, read
    through its own getter (``None`` when no bundled OpenBLAS is found)."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "lib*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def commit() -> str:
    """The checkout's commit, looked up without leaving the checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host_record(workload: str, outcome_host: dict) -> dict:
    import numpy
    import scipy

    import repro
    from repro.observe import new_run_id

    return {
        "workload": workload,
        "run_id": new_run_id(commit=commit()),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "openblas_threads": openblas_threads(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        **outcome_host,
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "repro": repro.__version__,
        },
    }


def stop_children() -> None:
    """Stop and reap every process this run started, so none outlives it.

    Shard workers are joined by the program's own ``close()``; this is the
    backstop for a run that failed before closing them.  The process
    transport's shared-memory segments also start multiprocessing's
    resource tracker, a child that would otherwise exit only after this
    process does: it is stopped here and waited for."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            break
    # Some child is still running: not one multiprocessing knows about.
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == os.getpid():
            os.kill(int(entry), signal.SIGKILL)
            os.waitpid(int(entry), 0)


def expected_metrics(trace: bool) -> dict[str, str]:
    """``{name: unit}`` the run must print, from ``BENCHMARK.json``."""
    spec = json.loads(SPEC_PATH.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None, table: dict | None = None) -> int:
    """Run one workload; ``table`` replaces the full-size workloads (the
    self-test passes tiny ones)."""
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # the program under test
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if (ROOT / "src") not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: imported repro from {repro.__file__}, not from "
              f"this checkout's {ROOT / 'src'}", file=sys.stderr)
        return 2
    from workloads import workloads

    table = workloads() if table is None else table
    if args.workload not in table:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(table)}", file=sys.stderr)
        return 2
    want = expected_metrics(bool(args.trace))
    try:
        outcome = table[args.workload](args.seed, args.seconds, bool(args.trace))
    finally:
        stop_children()

    got = {name: unit for name, (_, unit) in outcome.metrics.items()}
    if got != want:
        print(f"perfbench: emitted metrics {sorted(got.items())} do not match "
              f"BENCHMARK.json {sorted(want.items())}", file=sys.stderr)
        return 3
    print("host: " + json.dumps(host_record(args.workload, outcome.host)))
    for note in outcome.notes:
        print(note)
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name}: {value!r} {unit}")
    correct = outcome.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
