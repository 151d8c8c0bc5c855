"""Bench: closed-loop load against the micro-batched prediction server.

Drives the same fitted shard group two ways at each offered concurrency
``C`` (``C`` client threads, each submitting its next request only after
the previous one resolved — closed-loop load):

- **server**: requests flow through :class:`repro.serve.ModelServer`,
  whose dispatcher coalesces in-flight requests into one fused
  ``map_allreduce`` tick;
- **baseline**: one request at a time — each client runs a solo
  :func:`repro.shard.sharded_predict` serialized by a lock, i.e. the
  "call sharded_predict yourself" serving the ROADMAP item replaces.

Latencies come from :class:`repro.observe.MetricsRegistry` snapshots
(the server's own ``serve/request_s`` histogram; the baseline feeds an
identical registry), so the reported p50/p95/p99 exercise the same
percentile path production monitoring reads.

Claims recorded in the JSON payload:

- ``serve/batched-bitwise`` — every server response is bit-identical to
  the baseline's solo ``sharded_predict`` on the same input (asserted:
  a violation is a correctness bug, not a perf miss);
- ``serve/throughput-2x`` — at the highest offered concurrency the
  micro-batched server sustains >= 2x the one-at-a-time baseline's
  throughput (asserted: this is the serving engine's reason to exist).

One additional trial mode rides the same harness: ``--deadline`` mixes
doomed traffic (vanishing ``deadline_s``) into an admitted closed-loop
load and asserts the QoS contract: ``serve/deadline-shed-fast`` — every
doomed request fails with :class:`~repro.exceptions.DeadlineExceeded`
and consumes no tick (the ``serve/batch_requests`` histogram sums to the
admitted count exactly), and ``serve/deadline-throughput-2x`` —
admitted traffic still clears the >= 2x one-at-a-time gate while the
shedding runs (payload ``serve-deadline``).  HTTP bitwise parity is
pinned by ``tests/test_serve_http.py``.

CLI: ``python benchmarks/bench_serve.py [--smoke] [--deadline]
[--out PATH]``; JSON on stdout and under ``benchmarks/results/``
(``serve.json`` / ``serve_deadline.json``).  The exit code gates on the
claims; serving latency and throughput are tracked by the repository
benchmark's ``serve-http`` workload (``perfbench/``).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import threading
import time

import numpy as np

from repro.kernels import GaussianKernel
from repro.observe import MetricsRegistry, new_run_id
from repro.serve import ModelServer, ServeOptions
from repro.shard import ShardGroup, sharded_predict

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Micro-batching window for the load run, on the order of the
#: closed-loop clients' inter-arrival jitter (see
#: :class:`repro.serve.ServeOptions`: in-flight ticks keep the workers
#: busy through the window, so it costs dispatch latency only).
BATCH_WAIT_S = 2e-4


def serve_options(concurrency: int) -> ServeOptions:
    """Throughput-oriented serving knobs, sized to the offered load.

    A deployment tunes ``max_batch_requests`` to its expected concurrent
    load; the load generator knows its offered concurrency exactly, so
    the tick is sized to the cohort — the micro-batching window then
    closes *early* the moment a full cohort is queued (at ``C == 1``
    that is immediately: no added latency on unloaded runs) and the
    window timeout only pays off when stragglers are still in flight.
    """
    return ServeOptions(
        max_batch_requests=concurrency, batch_wait=BATCH_WAIT_S
    )


def _make_requests(
    rng: np.random.Generator,
    n_clients: int,
    requests_per_client: int,
    rows: int,
    d: int,
) -> list[list[np.ndarray]]:
    return [
        [
            rng.standard_normal((rows, d))
            for _ in range(requests_per_client)
        ]
        for _ in range(n_clients)
    ]


def _run_mode(
    mode: str,
    group: ShardGroup,
    requests: list[list[np.ndarray]],
    run_id: dict,
) -> tuple[dict, list[list[np.ndarray]]]:
    """One closed-loop run; returns (metrics row, per-request outputs)."""
    registry = MetricsRegistry(run_id=run_id)
    outputs: list[list[np.ndarray]] = [
        [None] * len(reqs) for reqs in requests
    ]
    server = None
    if mode == "server":
        server = ModelServer(
            group=group, metrics=registry,
            options=serve_options(len(requests)),
        )

        def issue(x: np.ndarray) -> np.ndarray:
            return server.predict_request(x, timeout=300).values

    else:
        lock = threading.Lock()

        def issue(x: np.ndarray) -> np.ndarray:
            t0 = time.perf_counter()
            with lock:
                out = np.asarray(sharded_predict(group, x))
            registry.observe("serve/request_s", time.perf_counter() - t0)
            return out

    def client(i: int) -> None:
        for j, x in enumerate(requests[i]):
            outputs[i][j] = issue(x)

    threads = [
        threading.Thread(target=client, args=(i,), name=f"load-{i}")
        for i in range(len(requests))
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall_s = time.perf_counter() - t0
    if server is not None:
        server.close()
    total = sum(len(reqs) for reqs in requests)
    snapshot = registry.snapshot()
    hist = snapshot["histograms"].get("serve/request_s", {})
    row = {
        "mode": mode,
        "concurrency": len(requests),
        "requests": total,
        "throughput_rps": total / wall_s if wall_s > 0 else None,
        "p50_ms": 1e3 * hist.get("p50", float("nan")),
        "p95_ms": 1e3 * hist.get("p95", float("nan")),
        "p99_ms": 1e3 * hist.get("p99", float("nan")),
    }
    if mode == "server":
        row["mean_batch_requests"] = snapshot["histograms"].get(
            "serve/batch_requests", {}
        ).get("mean", float("nan"))
    return row, outputs


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def run_bench(
    *,
    n: int,
    d: int,
    l: int,
    rows_per_request: int,
    requests_per_client: int,
    concurrencies: tuple[int, ...],
    transport: str,
    g: int,
    trials: int = 5,
) -> dict:
    rng = np.random.default_rng(0)
    centers = rng.standard_normal((n, d))
    weights = rng.standard_normal((n, l))
    kernel = GaussianKernel(bandwidth=4.0)
    run_id = new_run_id()

    rows: list[dict] = []
    bitwise_ok: list[bool] = []
    top_speedup: float | None = None
    with ShardGroup.build(
        centers, weights, g=g, kernel=kernel, transport=transport
    ) as group:
        # Warm worker pools and block workspaces outside both modes.
        for _ in range(2):
            sharded_predict(group, centers[:rows_per_request])
        for concurrency in concurrencies:
            requests = _make_requests(
                rng, concurrency, requests_per_client, rows_per_request, d
            )
            # Interleaved baseline/server trials, speedup = median of the
            # *paired* per-trial ratios: single-trial wall clocks on a
            # shared box swing by 2x as the machine moves through fast
            # and slow phases, but a phase covers both halves of an
            # adjacent (baseline, server) pair, so the ratio cancels it
            # where a ratio of independent medians does not.  Bitwise
            # parity is asserted on *every* trial.
            base_trials: list[dict] = []
            serve_trials: list[dict] = []
            paired_speedups: list[float] = []
            for _ in range(trials):
                base_row, base_out = _run_mode(
                    "baseline", group, requests, run_id
                )
                serve_row, serve_out = _run_mode(
                    "server", group, requests, run_id
                )
                bitwise_ok.append(all(
                    np.array_equal(a, b, equal_nan=True)
                    for outs_a, outs_b in zip(serve_out, base_out)
                    for a, b in zip(outs_a, outs_b)
                ))
                base_trials.append(base_row)
                serve_trials.append(serve_row)
                if base_row["throughput_rps"]:
                    paired_speedups.append(
                        serve_row["throughput_rps"]
                        / base_row["throughput_rps"]
                    )
            base_rps = _median(
                [row["throughput_rps"] for row in base_trials]
            )
            serve_rps = _median(
                [row["throughput_rps"] for row in serve_trials]
            )
            # Report the trial that carried the median throughput, so
            # the latency percentiles and the throughput figure come
            # from the same measured run.
            base_row = min(
                base_trials,
                key=lambda row: abs(row["throughput_rps"] - base_rps),
            )
            serve_row = min(
                serve_trials,
                key=lambda row: abs(row["throughput_rps"] - serve_rps),
            )
            speedup = (
                _median(paired_speedups) if paired_speedups else None
            )
            base_row["median_throughput_rps"] = base_rps
            serve_row["median_throughput_rps"] = serve_rps
            serve_row["speedup"] = speedup
            serve_row["paired_speedups"] = [
                round(s, 3) for s in paired_speedups
            ]
            serve_row["bitwise_identical"] = all(bitwise_ok[-trials:])
            serve_row["trials"] = trials
            rows.extend([base_row, serve_row])
            if concurrency == max(concurrencies):
                top_speedup = speedup

    claims = [
        {
            "claim_id": "serve/batched-bitwise",
            "measured": all(bitwise_ok),
            "holds": all(bitwise_ok),
        },
        {
            "claim_id": "serve/throughput-2x",
            "measured": top_speedup,
            "holds": (
                top_speedup >= 2.0 if top_speedup is not None else None
            ),
        },
    ]
    return {
        "benchmark": "serve-load",
        "run_id": run_id,
        "transport": transport,
        "config": {
            "n": n, "d": d, "l": l,
            "rows_per_request": rows_per_request,
            "requests_per_client": requests_per_client,
            "concurrencies": list(concurrencies),
            "transport": transport, "g": g, "trials": trials,
            "serve_options": {
                "max_batch_requests": "per-concurrency cohort size",
                "batch_wait": BATCH_WAIT_S,
            },
        },
        "rows": rows,
        "claims": claims,
    }


#: Doomed requests' deadline: expired by the time any cohort can form
#: (dispatch-loop iterations are microseconds; this is a nanosecond).
DOOMED_DEADLINE_S = 1e-9


def run_deadline_bench(
    *,
    n: int,
    d: int,
    l: int,
    rows_per_request: int,
    requests_per_client: int,
    doomed_per_client: int,
    concurrency: int,
    transport: str,
    g: int,
    trials: int = 3,
) -> dict:
    """Deadline-load trial: admitted closed-loop traffic with doomed
    (already-expired) requests mixed in.  Doomed requests must fail
    fast with DeadlineExceeded and consume no tick; admitted traffic
    must still clear the >= 2x one-at-a-time gate."""
    from repro.exceptions import DeadlineExceeded
    from repro.serve import PredictRequest

    rng = np.random.default_rng(2)
    centers = rng.standard_normal((n, d))
    weights = rng.standard_normal((n, l))
    kernel = GaussianKernel(bandwidth=4.0)
    run_id = new_run_id()

    n_doomed = concurrency * doomed_per_client
    n_admitted = concurrency * requests_per_client
    paired_speedups: list[float] = []
    shed_ok_all: list[bool] = []
    base_trials: list[dict] = []
    serve_trials: list[dict] = []
    with ShardGroup.build(
        centers, weights, g=g, kernel=kernel, transport=transport
    ) as group:
        for _ in range(2):
            sharded_predict(group, centers[:rows_per_request])
        requests = _make_requests(
            rng, concurrency, requests_per_client, rows_per_request, d
        )
        doomed_x = rng.standard_normal((rows_per_request, d))

        def baseline_trial() -> dict:
            """One-at-a-time serving of the same mixed load.  The solo
            path has no shedding: a caller that cannot know the queue
            state must issue every request, so already-dead ones still
            cost a full serialized round-trip — the capacity the
            dispatcher's shedding hands back to admitted traffic."""
            registry = MetricsRegistry(run_id=run_id)
            lock = threading.Lock()

            def load(i: int) -> None:
                for j, x in enumerate(requests[i]):
                    if j < doomed_per_client:
                        with lock:
                            sharded_predict(group, doomed_x)
                    t0 = time.perf_counter()
                    with lock:
                        sharded_predict(group, x)
                    registry.observe(
                        "serve/request_s", time.perf_counter() - t0
                    )

            threads = [
                threading.Thread(target=load, args=(i,), name=f"dlb-{i}")
                for i in range(concurrency)
            ]
            t0 = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            wall_s = time.perf_counter() - t0
            hist = registry.snapshot()["histograms"].get(
                "serve/request_s", {}
            )
            return {
                "mode": "baseline",
                "concurrency": concurrency,
                "requests": n_admitted,
                "throughput_rps": (
                    n_admitted / wall_s if wall_s > 0 else None
                ),
                "p50_ms": 1e3 * hist.get("p50", float("nan")),
                "p95_ms": 1e3 * hist.get("p95", float("nan")),
                "p99_ms": 1e3 * hist.get("p99", float("nan")),
            }

        for _ in range(trials):
            base_row = baseline_trial()
            registry = MetricsRegistry(run_id=run_id)
            server = ModelServer(
                group=group, metrics=registry,
                options=serve_options(concurrency),
            )
            doomed: list = []

            def load(i: int) -> None:
                for j, x in enumerate(requests[i]):
                    if j < doomed_per_client:
                        doomed.append(server.submit_request(PredictRequest(
                            rows=doomed_x, deadline_s=DOOMED_DEADLINE_S,
                        )))
                    server.predict_request(x, timeout=300)

            threads = [
                threading.Thread(target=load, args=(i,), name=f"dl-{i}")
                for i in range(concurrency)
            ]
            t0 = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            wall_s = time.perf_counter() - t0
            server.close()

            shed_ok_all.append(
                len(doomed) == n_doomed
                and all(
                    isinstance(f.exception(timeout=30), DeadlineExceeded)
                    for f in doomed
                )
            )
            snapshot = registry.snapshot()
            counters = snapshot["counters"]
            ticked = sum(registry.histogram_values("serve/batch_requests"))
            shed_ok_all.append(
                counters.get("serve/shed_requests", 0) == n_doomed
                and ticked == n_admitted
            )
            hist = snapshot["histograms"].get("serve/request_s", {})
            serve_row = {
                "mode": "server",
                "concurrency": concurrency,
                "requests": n_admitted,
                "throughput_rps": (
                    n_admitted / wall_s if wall_s > 0 else None
                ),
                "p50_ms": 1e3 * hist.get("p50", float("nan")),
                "p95_ms": 1e3 * hist.get("p95", float("nan")),
                "p99_ms": 1e3 * hist.get("p99", float("nan")),
                "shed": {
                    "doomed": n_doomed,
                    "shed_requests": counters.get("serve/shed_requests", 0),
                    "ticked_requests": ticked,
                },
            }
            base_trials.append(base_row)
            serve_trials.append(serve_row)
            if base_row["throughput_rps"] and serve_row["throughput_rps"]:
                paired_speedups.append(
                    serve_row["throughput_rps"] / base_row["throughput_rps"]
                )

    base_rps = _median([r["throughput_rps"] for r in base_trials])
    serve_rps = _median([r["throughput_rps"] for r in serve_trials])
    base_row = min(
        base_trials, key=lambda r: abs(r["throughput_rps"] - base_rps)
    )
    serve_row = min(
        serve_trials, key=lambda r: abs(r["throughput_rps"] - serve_rps)
    )
    speedup = _median(paired_speedups) if paired_speedups else None
    serve_row["speedup"] = speedup
    serve_row["paired_speedups"] = [round(s, 3) for s in paired_speedups]
    serve_row["trials"] = trials
    rows = [base_row, serve_row]
    shed_ok = all(shed_ok_all)

    return {
        "benchmark": "serve-deadline",
        "run_id": run_id,
        "transport": transport,
        "config": {
            "n": n, "d": d, "l": l,
            "rows_per_request": rows_per_request,
            "requests_per_client": requests_per_client,
            "doomed_per_client": doomed_per_client,
            "doomed_deadline_s": DOOMED_DEADLINE_S,
            "concurrency": concurrency, "transport": transport,
            "g": g, "trials": trials,
        },
        "rows": rows,
        "claims": [
            {
                "claim_id": "serve/deadline-shed-fast",
                "measured": (
                    f"{n_doomed} doomed/trial: all DeadlineExceeded, "
                    f"shed counter exact, only the {n_admitted} admitted "
                    "requests ticked"
                ),
                "holds": shed_ok,
            },
            {
                "claim_id": "serve/deadline-throughput-2x",
                "measured": speedup,
                "holds": speedup >= 2.0 if speedup is not None else None,
            },
        ],
    }


def _emit(payload: dict, out: pathlib.Path | None, default_name: str) -> int:
    """Write + print one payload and gate on its claims."""
    if out is None:
        RESULTS_DIR.mkdir(exist_ok=True)
        out = RESULTS_DIR / default_name
    out.write_text(json.dumps(payload, indent=2, default=str) + "\n")
    print(json.dumps(payload, indent=2, default=str))

    failed = False
    for claim in payload["claims"]:
        if claim["holds"] is not None:
            status = "holds" if claim["holds"] else "FAILED"
            print(
                f"{claim['claim_id']}: {status} "
                f"(measured {claim['measured']})",
                file=sys.stderr,
            )
            failed = failed or not claim["holds"]
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink the workload for CI")
    parser.add_argument("--deadline", action="store_true",
                        help="run the deadline-load trial instead of the "
                             "in-process load sweep")
    parser.add_argument("--out", type=pathlib.Path, default=None)
    parser.add_argument("--transport", default="thread")
    parser.add_argument("--g", type=int, default=2)
    args = parser.parse_args(argv)

    if args.deadline:
        shape = (
            dict(n=2_048, d=16, l=4, rows_per_request=1,
                 requests_per_client=40, doomed_per_client=10,
                 concurrency=8, trials=3)
            if args.smoke
            else dict(n=8_192, d=32, l=8, rows_per_request=1,
                      requests_per_client=50, doomed_per_client=12,
                      concurrency=16, trials=5)
        )
        payload = run_deadline_bench(
            transport=args.transport, g=args.g, **shape
        )
        payload["smoke"] = args.smoke
        # Both claims gate: shed-fast is the QoS correctness contract,
        # and admitted traffic must still clear the serving gate.
        return _emit(payload, args.out, "serve_deadline.json")

    # rows_per_request=1 is the serving-relevant shape: single-sample
    # requests maximize the per-request overhead a coalesced tick
    # amortizes, and a large center set keeps the baseline's round-trip
    # share honest.
    shape = (
        dict(n=2_048, d=16, l=4, rows_per_request=1,
             requests_per_client=40, concurrencies=(1, 4, 8))
        if args.smoke
        else dict(n=8_192, d=32, l=8, rows_per_request=1,
                  requests_per_client=50, concurrencies=(1, 2, 4, 8, 16),
                  trials=5)
    )
    payload = run_bench(transport=args.transport, g=args.g, **shape)
    payload["smoke"] = args.smoke
    # Both claims gate: bitwise parity is the serving correctness
    # contract, and >= 2x over one-at-a-time at top concurrency is the
    # engine's acceptance bar.
    return _emit(payload, args.out, "serve.json")


if __name__ == "__main__":
    raise SystemExit(main())
