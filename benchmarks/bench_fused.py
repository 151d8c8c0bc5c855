"""Bench: fused kernel hot path vs the decomposed chain, per backend.

Times the streamed training matvec (``profile(dist²(x, z)) @ w`` through
:func:`repro.kernels.ops.kernel_matvec`) with the backend's fused entry
point and with the base class's decomposed block former
(:meth:`repro.backend.ArrayBackend.fused_kernel_block`: distance GEMM →
tail → profile) in its place, for every available backend and both
fusable profiles (gaussian, laplacian) — plus the precision tiers
(float64 / float32 / mixed) of the fused path.

Claims recorded in the JSON payload:

- ``fused/numpy-bitwise`` — the NumPy backend's fused entry points
  *decompose*, so fused and unfused outputs are bitwise identical
  (asserted: a violation is a correctness bug, not a perf miss);
- ``fused/torch-speedup`` — torch-gated: the ``torch.compile`` fused
  block former beats the decomposed chain (median over rounds after
  compile warmup).  Informational on shared CI hardware — recorded,
  printed, never auto-asserted;
- ``mixed/compute-speedup`` — float32 blocks (the ``mixed`` tier's
  compute dtype) beat float64 blocks.  Informational.

CLI: ``python benchmarks/bench_fused.py [--smoke] [--out PATH]``; JSON on
stdout and under ``benchmarks/results/fused.json`` by default.  The
payload's per-backend gaussian-matvec rows are the
``fused-hot-path/<backend>`` series of the bench trajectory
(``merge_trajectory.py`` / ``check_trajectory.py``).

Under pytest (``python -m pytest benchmarks/bench_fused.py``, add
``--benchmark-disable`` for a one-shot smoke) the module times the NumPy
block former at the ``fit-large-batch`` step shape — one 8000 x 8000
float64 Gaussian block, d=32 — tiled over the process's compute threads
against the single-pass chain, and asserts the two blocks are bitwise
equal.
"""

from __future__ import annotations

import argparse
import copy
import functools
import hashlib
import json
import pathlib
import statistics
import sys
import time

import numpy as np
import pytest

from repro.backend import (
    ArrayBackend,
    NumpyBackend,
    available_backends,
    get_backend,
    to_numpy,
    use_backend,
)
from repro.config import use_precision
from repro.kernels import GaussianKernel, LaplacianKernel
from repro.kernels.ops import kernel_matvec
from repro.observe import new_run_id

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def _time_ms(fn, rounds: int, warmup: int) -> float:
    for _ in range(warmup):
        fn()
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def _decomposed(bk: ArrayBackend) -> ArrayBackend:
    """A copy of ``bk`` whose block former is the base class's
    decomposed chain, bypassing any fused override."""
    out = copy.copy(bk)
    out.fused_kernel_block = functools.partial(
        ArrayBackend.fused_kernel_block, out
    )
    return out


def run_bench(
    *, n: int, d: int, m: int, l: int, rounds: int, warmup: int,
    max_scalars: int,
) -> dict:
    rng = np.random.default_rng(0)
    x = rng.standard_normal((n, d))
    batch = rng.standard_normal((m, d))
    w = rng.standard_normal((n, l))
    kernels = [
        ("gaussian", GaussianKernel(bandwidth=5.0)),
        ("laplacian", LaplacianKernel(bandwidth=5.0)),
    ]
    rows: list[dict] = []
    bitwise_ok: list[bool] = []
    torch_speedups: list[float] = []
    mixed_speedups: list[float] = []

    for backend in available_backends():
        with use_backend(backend):
            for profile, kernel in kernels:

                def matvec():
                    return np.asarray(
                        to_numpy(
                            kernel_matvec(
                                kernel, batch, x, w,
                                max_scalars=max_scalars,
                            )
                        )
                    )

                fused_ms = _time_ms(matvec, rounds, warmup)
                fused_out = matvec()
                with use_backend(_decomposed(get_backend())):
                    decomposed_ms = _time_ms(matvec, rounds, warmup)
                    decomposed_out = matvec()
                speedup = decomposed_ms / fused_ms if fused_ms > 0 else None
                bitwise = bool(np.array_equal(fused_out, decomposed_out))
                rows.append(
                    {
                        "backend": backend,
                        "case": f"matvec/{profile}",
                        "fused_ms": fused_ms,
                        "decomposed_ms": decomposed_ms,
                        "speedup": speedup,
                        "bitwise_identical": bitwise,
                    }
                )
                if backend == "numpy":
                    bitwise_ok.append(bitwise)
                elif speedup is not None:
                    torch_speedups.append(speedup)

            tier_ms: dict[str, float] = {}
            for tier in ("float64", "float32", "mixed"):
                # Mirror the trainer: under reduced tiers the master
                # weights are downcast to the compute dtype for the GEMM.
                w_t = w if tier == "float64" else w.astype(np.float32)
                with use_precision(tier):
                    tier_ms[tier] = _time_ms(
                        lambda: to_numpy(
                            kernel_matvec(
                                kernels[0][1], batch, x, w_t,
                                max_scalars=max_scalars,
                            )
                        ),
                        rounds,
                        warmup,
                    )
                rows.append(
                    {
                        "backend": backend,
                        "case": f"tier/{tier}",
                        "fused_ms": tier_ms[tier],
                    }
                )
            if tier_ms["mixed"] > 0:
                mixed_speedups.append(tier_ms["float64"] / tier_ms["mixed"])

    claims = [
        {
            "claim_id": "fused/numpy-bitwise",
            "measured": all(bitwise_ok),
            "holds": all(bitwise_ok),
        },
        {
            "claim_id": "fused/torch-speedup",
            "measured": min(torch_speedups) if torch_speedups else None,
            "holds": (
                all(s >= 1.0 for s in torch_speedups)
                if torch_speedups
                else None
            ),
        },
        {
            "claim_id": "mixed/compute-speedup",
            "measured": min(mixed_speedups) if mixed_speedups else None,
            "holds": (
                all(s >= 1.0 for s in mixed_speedups)
                if mixed_speedups
                else None
            ),
        },
    ]
    return {
        "benchmark": "fused-hot-path",
        "run_id": new_run_id(),
        "config": {
            "n": n, "d": d, "m": m, "l": l,
            "rounds": rounds, "warmup": warmup,
            "max_scalars": max_scalars,
            "backends": available_backends(),
        },
        "rows": rows,
        "claims": claims,
    }


class _SinglePass(NumpyBackend):
    """NumPy with the base class's one-pass post-GEMM tail."""

    _kernel_tail = ArrayBackend._kernel_tail


@pytest.fixture(scope="module")
def large_block():
    """Operands of one ``fit-large-batch`` step block, m = n = 8000."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((8_000, 32))
    z = rng.standard_normal((8_000, 32))
    profile, scale = GaussianKernel(bandwidth=5.0).fused_spec
    kwargs = dict(
        profile=profile, scale=scale, out=np.empty((8_000, 8_000)),
        x_sq_norms=np.einsum("ij,ij->i", x, x),
        z_sq_norms=np.einsum("ij,ij->i", z, z), dtype=np.float64,
    )
    return x, z, kwargs


def _form(bk, large_block):
    x, z, kwargs = large_block
    return bk.fused_kernel_block(x, z, **kwargs)


def test_large_batch_block_tiled(benchmark, large_block):
    block = benchmark(_form, NumpyBackend(), large_block)
    tiled = hashlib.sha256(block).hexdigest()
    single = hashlib.sha256(_form(_SinglePass(), large_block)).hexdigest()
    assert tiled == single


def test_large_batch_block_single_pass(benchmark, large_block):
    benchmark(_form, _SinglePass(), large_block)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink the workload for CI")
    parser.add_argument("--out", type=pathlib.Path, default=None)
    parser.add_argument("--rounds", type=int, default=None)
    args = parser.parse_args(argv)

    shape = (
        dict(n=2_000, d=32, m=256, l=4, rounds=3, warmup=1,
             max_scalars=600_000)
        if args.smoke
        else dict(n=8_000, d=64, m=512, l=10, rounds=5, warmup=2,
                  max_scalars=2_000_000)
    )
    if args.rounds is not None:
        shape["rounds"] = args.rounds
    payload = run_bench(**shape)
    payload["smoke"] = args.smoke

    out = args.out
    if out is None:
        RESULTS_DIR.mkdir(exist_ok=True)
        out = RESULTS_DIR / "fused.json"
    out.write_text(json.dumps(payload, indent=2, default=str) + "\n")
    print(json.dumps(payload, indent=2, default=str))

    for claim in payload["claims"]:
        if claim["holds"] is not None:
            status = "holds" if claim["holds"] else "FAILED"
            print(
                f"{claim['claim_id']}: {status} "
                f"(measured {claim['measured']})",
                file=sys.stderr,
            )
    # Only the correctness claim gates: speedups are hardware-dependent
    # and tracked by the trajectory instead.
    if not next(
        c for c in payload["claims"] if c["claim_id"] == "fused/numpy-bitwise"
    )["holds"]:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
