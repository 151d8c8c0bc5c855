"""Multi-GPU scaling study — the paper's Section-6 future work, executed.

Not a table in the paper; an extension it explicitly calls for ("going
beyond ... using multi-GPU setups is the next natural step").  Because
EigenPro 2.0 consumes the device only through the ``(C_G, S_G)``
abstraction, handing it the aggregate spec from
:func:`repro.device.cluster.multi_gpu` adapts the kernel to the cluster
with no algorithm changes:

- ``m_max`` grows ~linearly with the device count ``g`` (until clamped
  by ``n``), so Step 2 flattens more of the spectrum;
- simulated epoch time at the adapted batch drops until all-reduce
  latency bounds it — the realistic scaling knee.

The measured side of the same cluster model is
:func:`repro.observe.compare_phases` (``python -m repro.experiments
observe-report``), which joins a traced sharded fit against it phase by
phase.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.eigenpro2 import select_parameters
from repro.core.resource import max_device_batch_size
from repro.data import get_dataset
from repro.device.cluster import Interconnect, multi_gpu
from repro.device.presets import titan_xp
from repro.device.simulator import SimulatedDevice
from repro.experiments.harness import ExperimentResult, PaperClaim
from repro.kernels import GaussianKernel

__all__ = ["ClusterScalingConfig", "run_cluster_scaling"]


@dataclass
class ClusterScalingConfig:
    dataset: str = "timit"
    n_train: int = 2000
    n_paper: float = 1.1e6
    device_counts: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64)
    bandwidth: float = 15.0
    # Ethernet-class interconnect by default — slow enough that the
    # network-bound regime appears within the device sweep (with NVLink
    # the efficiency stays ~99% through g=16, which is also instructive
    # but hides the knee the model exists to expose).
    interconnect: Interconnect = Interconnect(
        latency_s=1e-3, bandwidth_scalars_per_s=2.5e8
    )
    seed: int = 0


def run_cluster_scaling(
    cfg: ClusterScalingConfig | None = None,
) -> ExperimentResult:
    """Sweep simulated GPU counts: m_max scaling, epoch times and
    parallel efficiency under the all-reduce network model."""
    cfg = cfg or ClusterScalingConfig()
    ds = get_dataset(
        cfg.dataset, n_train=cfg.n_train, n_test=50, seed=cfg.seed
    )
    result = ExperimentResult(
        name="cluster-scaling",
        title="EigenPro 2.0 adapting to multi-GPU clusters (Section-6 extension)",
        notes=(
            "Paper-scale workload dimensions; aggregate device model per "
            "repro.device.cluster (ring all-reduce alpha-beta network)."
        ),
    )
    # Paper-scale workload for the m_max / epoch-time rows.
    n_p, d_p, l_p = int(cfg.n_paper), ds.d, ds.l
    base = titan_xp().spec
    m_maxes, epoch_times = [], []
    for g in cfg.device_counts:
        cluster = multi_gpu(
            base, g, interconnect=cfg.interconnect,
            sync_payload_scalars=1000.0 * l_p,
        )
        analysis = max_device_batch_size(cluster, n_p, d_p, l_p)
        m = analysis.m_max
        iters = -(-n_p // m)
        ops = (d_p + l_p) * m * n_p
        epoch = cluster.spec.epoch_time(ops, iters)
        m_maxes.append(m)
        epoch_times.append(epoch)
        result.add_row(
            devices=g,
            m_max=m,
            bound="compute" if analysis.compute_bound else "memory",
            epoch_time_s=round(epoch, 3),
            speedup_vs_1=round(epoch_times[0] / epoch, 2),
            efficiency_pct=round(100 * epoch_times[0] / epoch / g, 1),
        )

    # Verify the *selection machinery* runs against a cluster spec too
    # (reduced n; scaled cluster).
    scaled_cluster = multi_gpu(
        base.scaled(cfg.n_train / cfg.n_paper), 4,
        interconnect=cfg.interconnect,
    )
    params, _, _ = select_parameters(
        GaussianKernel(bandwidth=cfg.bandwidth), ds.x_train, ds.l,
        scaled_cluster, seed=cfg.seed,
    )
    single = SimulatedDevice(base.scaled(cfg.n_train / cfg.n_paper))
    params_single, _, _ = select_parameters(
        GaussianKernel(bandwidth=cfg.bandwidth), ds.x_train, ds.l,
        single, seed=cfg.seed,
    )

    result.add_claim(
        PaperClaim(
            claim_id="cluster/m-max-scales",
            description="Aggregate capacity raises m_max ~linearly in g",
            paper="(Section 6: multi-GPU as the natural next step)",
            measured=(
                "m_max per g: "
                + ", ".join(
                    f"g={g}: {m}" for g, m in zip(cfg.device_counts, m_maxes)
                )
            ),
            holds=all(
                b >= 1.7 * a
                for a, b in zip(m_maxes, m_maxes[1:])
                if a < n_p  # until clamped by the dataset
            ),
        )
    )
    eff = [
        epoch_times[0] / t / g
        for g, t in zip(cfg.device_counts, epoch_times)
    ]
    result.add_claim(
        PaperClaim(
            claim_id="cluster/near-linear-until-network",
            description=(
                "Epoch-time scaling is near-linear for small g and degrades "
                "as all-reduce costs bind"
            ),
            paper="network bandwidth must be taken into account (Section 2)",
            measured=(
                "efficiency per g: "
                + ", ".join(
                    f"g={g}: {100 * e:.0f}%"
                    for g, e in zip(cfg.device_counts, eff)
                )
            ),
            holds=eff[1] > 0.7 and eff[-1] <= eff[1] + 1e-9,
        )
    )
    result.add_claim(
        PaperClaim(
            claim_id="cluster/no-code-changes",
            description=(
                "Parameter selection adapts to the cluster through the "
                "abstraction alone (larger batch than single-GPU)"
            ),
            paper="(design property of the resource abstraction)",
            measured=(
                f"batch: single={params_single.batch_size}, "
                f"4-GPU cluster={params.batch_size}"
            ),
            holds=params.batch_size >= params_single.batch_size,
        )
    )
    return result
