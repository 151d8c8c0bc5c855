"""Multi-GPU resource model — the paper's Section-6 future direction.

"Going beyond that to 1e8 or more data points using multi-GPU setups is
the next natural step for kernel methods."  The paper's Section 2 already
anticipates the modelling requirement: "for computational resources like
cluster and supercomputer, we need to take into account additional
factors such as network bandwidth."

This module composes ``g`` identical devices into one aggregate
:class:`~repro.device.spec.DeviceSpec` under data-parallel kernel SGD:

- the training centers are *sharded*: each device holds ``n/g`` centers
  and computes the batch-vs-shard kernel block, so aggregate capacity,
  throughput and memory all scale by ``g``;
- each iteration ends with an all-reduce of the batch predictions
  (``m * l`` scalars) whose cost is modelled as a latency term plus a
  bandwidth term, added to the launch overhead.

Because everything above the abstraction consumes only ``(C_G, S_G,
timing)``, EigenPro 2.0 adapts to a cluster *with no new code*: Step 1
sees a bigger ``m_max``, Step 2 flattens more of the spectrum, and the
extended linear scaling continues — until the all-reduce latency eats the
per-iteration gain, which is the realistic saturation this model lets
you study (see ``benchmarks/bench_cluster.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.device.simulator import SimulatedDevice
from repro.device.spec import DeviceSpec
from repro.exceptions import ConfigurationError

__all__ = [
    "Interconnect",
    "multi_gpu",
    "allreduce_time",
    "recovery_time",
    "serving_latency",
    "TRANSPORT_INTERCONNECTS",
    "transport_interconnect",
    "link_cost",
]


@dataclass(frozen=True)
class Interconnect:
    """A simple alpha-beta model of the cluster network.

    Attributes
    ----------
    latency_s:
        Per-all-reduce latency (the "alpha" term), e.g. ~1e-5 s for
        NVLink, ~5e-5 s for PCIe peer-to-peer, ~1e-4+ s for Ethernet.
    bandwidth_scalars_per_s:
        Payload throughput in scalars/second (the "beta" term);
        e.g. NVLink ~ 1.25e10 scalars/s (50 GB/s of float32).
    """

    latency_s: float = 5e-5
    bandwidth_scalars_per_s: float = 1.25e10

    def __post_init__(self) -> None:
        if self.latency_s < 0:
            raise ConfigurationError(
                f"latency_s must be >= 0, got {self.latency_s}"
            )
        if self.bandwidth_scalars_per_s <= 0:
            raise ConfigurationError(
                "bandwidth_scalars_per_s must be > 0, got "
                f"{self.bandwidth_scalars_per_s}"
            )


def allreduce_time(
    interconnect: Interconnect, n_devices: int, payload_scalars: float
) -> float:
    """Ring all-reduce cost: ``2(g-1)/g`` payload traversals plus latency
    proportional to ``log2(g)`` stages."""
    if n_devices < 1:
        raise ConfigurationError(f"n_devices must be >= 1, got {n_devices}")
    if payload_scalars < 0:
        raise ConfigurationError(
            f"payload_scalars must be >= 0, got {payload_scalars}"
        )
    if n_devices == 1:
        return 0.0
    stages = max(1, (n_devices - 1).bit_length())
    traffic = 2.0 * (n_devices - 1) / n_devices * payload_scalars
    return (
        stages * interconnect.latency_s
        + traffic / interconnect.bandwidth_scalars_per_s
    )


#: Per-transport link models for the *executable* shard engine
#: (:mod:`repro.shard`).  The thread transport's "network" is a host
#: memcpy between threads sharing one memory system: tiny latency, memory
#: bandwidth.  The process transport pays a pickle + pipe round-trip per
#: collective contribution: ~100x the latency, an order of magnitude less
#: effective bandwidth.  These are calibration-scale figures (the
#: compute rate is calibrated from each run by
#: :func:`repro.observe.compare_phases`); their role is to let the
#: modelled allreduce term *differ by transport*, the way a NCCL link
#: would differ from Ethernet.
TRANSPORT_INTERCONNECTS: dict[str, Interconnect] = {
    "thread": Interconnect(latency_s=2e-5, bandwidth_scalars_per_s=5e9),
    "process": Interconnect(latency_s=2e-4, bandwidth_scalars_per_s=6e8),
    # torch.distributed links for the torchdist transport.  gloo runs the
    # ring over loopback TCP sockets *plus* the transport's pickle+pipe
    # task round-trip that ships each rank its partial, so it is the
    # highest-latency, lowest-bandwidth link in the table.  NCCL is the
    # NVLink-class fabric the generic Interconnect() default idealizes:
    # ~10 us ring launch, ~50 GB/s of float32 payload per link.
    "gloo": Interconnect(latency_s=5e-4, bandwidth_scalars_per_s=3e8),
    "nccl": Interconnect(latency_s=1e-5, bandwidth_scalars_per_s=1.25e10),
}


def transport_interconnect(transport: str) -> Interconnect:
    """The link model for a named shard-transport fabric (``"thread"``,
    ``"process"``, ``"gloo"``, ``"nccl"`` — the
    :meth:`repro.shard.transport.ShardTransport.link_name` keys)."""
    try:
        return TRANSPORT_INTERCONNECTS[transport]
    except KeyError:
        raise ConfigurationError(
            f"no interconnect model for transport {transport!r}; known: "
            + ", ".join(sorted(TRANSPORT_INTERCONNECTS))
        ) from None


def link_cost(
    transport: str, n_devices: int, payload_scalars: float
) -> float:
    """Modelled per-iteration collective cost of a shard transport:
    :func:`allreduce_time` under that transport's link model, so
    modelled allreduce time differs between a host memcpy (threads) and
    IPC (processes)."""
    return allreduce_time(
        transport_interconnect(transport), n_devices, payload_scalars
    )


def recovery_time(
    interconnect: Interconnect,
    n_devices: int,
    *,
    weight_scalars: float,
    resident_scalars: float | None = None,
    replayed_iterations: int = 0,
    iteration_time_s: float = 0.0,
    worker_spawn_s: float = 0.05,
) -> float:
    """Modelled cost of one elastic-shrink recovery: what a worker
    failure costs a ``g``-device data-parallel fit (the MLSYSIM-style
    "what does a failure cost at g=64?" question).

    Three terms, mirroring what the executable recovery path
    (:mod:`repro.shard.recovery`) actually does:

    - **re-shard**: respawn the ``g - 1`` surviving workers (concurrent,
      so one ``worker_spawn_s`` charge plus a per-worker latency hit)
      and move the dead shard's ``resident_scalars / g`` resident rows
      across the link to its new owners;
    - **restore**: scatter the checkpointed ``weight_scalars`` weight
      matrix over the rebuilt group (one latency per survivor plus the
      full payload once — every transport reshards the whole matrix, not
      a delta);
    - **replay**: re-run the ``replayed_iterations`` steps completed
      since the last checkpoint, at the fit's normal per-iteration cost.

    Parameters
    ----------
    interconnect:
        Link model of the transport being recovered (e.g.
        :func:`transport_interconnect`'s entry for it).
    n_devices:
        Shard count *before* the failure; must be >= 2 (a single-device
        fit has nothing to shrink to).
    weight_scalars:
        Checkpoint payload ``n * l`` restored onto the new group.
    resident_scalars:
        Total resident state ``n * (d + l)`` redistributed from the dead
        shard (its ``1/g`` share crosses the link); defaults to
        ``weight_scalars``.
    replayed_iterations, iteration_time_s:
        Steps replayed since the last checkpoint and the measured (or
        modelled) cost of one step.
    worker_spawn_s:
        Process/rank startup cost, charged once (survivors respawn
        concurrently).
    """
    n_devices = int(n_devices)
    if n_devices < 2:
        raise ConfigurationError(
            f"recovery needs n_devices >= 2 to shrink, got {n_devices}"
        )
    if weight_scalars < 0:
        raise ConfigurationError(
            f"weight_scalars must be >= 0, got {weight_scalars}"
        )
    if replayed_iterations < 0:
        raise ConfigurationError(
            f"replayed_iterations must be >= 0, got {replayed_iterations}"
        )
    if iteration_time_s < 0:
        raise ConfigurationError(
            f"iteration_time_s must be >= 0, got {iteration_time_s}"
        )
    if worker_spawn_s < 0:
        raise ConfigurationError(
            f"worker_spawn_s must be >= 0, got {worker_spawn_s}"
        )
    survivors = n_devices - 1
    resident = (
        float(weight_scalars) if resident_scalars is None
        else float(resident_scalars)
    )
    if resident < 0:
        raise ConfigurationError(
            f"resident_scalars must be >= 0, got {resident}"
        )
    beta = interconnect.bandwidth_scalars_per_s
    reshard = (
        worker_spawn_s
        + survivors * interconnect.latency_s
        + (resident / n_devices) / beta
    )
    restore = survivors * interconnect.latency_s + float(weight_scalars) / beta
    replay = int(replayed_iterations) * float(iteration_time_s)
    return reshard + restore + replay


def serving_latency(
    interconnect: Interconnect,
    n_devices: int,
    *,
    payload_scalars: float,
    queue_wait_s: float = 0.0,
    block_time_s: float = 0.0,
    fused: bool = True,
    deadline_s: float | None = None,
) -> float:
    """Modelled end-to-end latency of one micro-batched serving request
    (the :mod:`repro.serve` dispatcher path): time spent waiting for the
    tick, plus the tick's fused kernel block, plus the collective that
    combines the per-shard partials.

    Three terms, mirroring the measured ``serve/{queue,kernel}`` spans:

    - **queue wait**: how long the request sat before its dispatcher
      tick fired (measured ``serve/queue_s``; under closed-loop load
      roughly half a tick on average);
    - **block**: the sharded kernel block + GEMM for the whole coalesced
      batch (shared by every request riding the tick);
    - **all-reduce**: :func:`allreduce_time` over the tick's
      ``payload_scalars`` (the coalesced ``B * l`` response block).
      ``fused=True`` (the ``map_allreduce`` path the server actually
      runs) shaves one ``interconnect.latency_s`` dispatch, exactly as
      :func:`multi_gpu` does with ``fused_collective`` — fusion removes a
      round-trip, not bytes.

    ``deadline_s`` models the dispatcher's shedding rule: a request
    whose deadline expires while queued never reaches the shard group,
    so when ``queue_wait_s >= deadline_s`` the modelled latency is just
    ``deadline_s`` — the moment the engine fails the future with
    :class:`~repro.exceptions.DeadlineExceeded` — and *no* block or
    collective term is charged.  ``None`` (default) never sheds.
    """
    if queue_wait_s < 0:
        raise ConfigurationError(
            f"queue_wait_s must be >= 0, got {queue_wait_s}"
        )
    if block_time_s < 0:
        raise ConfigurationError(
            f"block_time_s must be >= 0, got {block_time_s}"
        )
    if deadline_s is not None:
        if not float(deadline_s) > 0:
            raise ConfigurationError(
                f"deadline_s must be > 0 (or None), got {deadline_s}"
            )
        if float(queue_wait_s) >= float(deadline_s):
            # Shed while queued: the caller hears back at the deadline,
            # and the tick spends nothing on the request.
            return float(deadline_s)
    sync = allreduce_time(interconnect, n_devices, payload_scalars)
    if fused and n_devices > 1:
        sync = max(0.0, sync - interconnect.latency_s)
    return float(queue_wait_s) + float(block_time_s) + sync


def multi_gpu(
    base: SimulatedDevice | DeviceSpec,
    n_devices: int,
    *,
    interconnect: Interconnect | None = None,
    sync_payload_scalars: float = 100_000.0,
    fused_collective: bool = False,
) -> SimulatedDevice:
    """Aggregate ``n_devices`` copies of ``base`` into one simulated device.

    Parameters
    ----------
    base:
        The single-device spec (e.g. ``titan_xp()``).
    n_devices:
        Number of devices ``g >= 1``.
    interconnect:
        Network model; defaults to an NVLink-class interconnect.
    sync_payload_scalars:
        Scalars all-reduced per iteration.  For kernel SGD this is the
        batch prediction block ``m * l``; the default corresponds to
        ``m ~ 1000, l ~ 100``.  The resulting cost is folded into the
        aggregate spec's launch overhead (charged once per iteration),
        which keeps the composed object a plain :class:`DeviceSpec`.
    fused_collective:
        Model the fused forward + all-reduce step (the transport layer's
        ``map_allreduce``): one task round-trip — one
        ``interconnect.latency_s`` — is shaved off the per-iteration
        collective.  The payload traversal cost is unchanged: fusion
        removes a dispatch, not bytes.
    """
    spec = base.spec if isinstance(base, SimulatedDevice) else base
    n_devices = int(n_devices)
    if n_devices < 1:
        raise ConfigurationError(f"n_devices must be >= 1, got {n_devices}")
    interconnect = interconnect or Interconnect()
    sync = allreduce_time(interconnect, n_devices, sync_payload_scalars)
    if fused_collective and n_devices > 1:
        sync = max(0.0, sync - interconnect.latency_s)
    aggregate = DeviceSpec(
        name=f"{spec.name}-x{n_devices}",
        parallel_capacity=spec.parallel_capacity * n_devices,
        throughput=spec.throughput * n_devices,
        memory_scalars=spec.memory_scalars * n_devices,
        launch_overhead_s=spec.launch_overhead_s + sync,
        latency_floor_s=spec.latency_floor_s,
    )
    return SimulatedDevice(aggregate)
