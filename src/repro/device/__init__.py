"""The parallel-computational-resource abstraction of the paper's Section 2.

The paper models a resource ``G`` by two numbers:

- ``C_G`` — *parallel capacity*: the number of operations needed to fully
  utilize the device's parallelism.  One iteration whose operation count is
  below ``C_G`` takes (nearly) constant time; beyond it, time grows
  proportionally to the operation count (Figure 3a).
- ``S_G`` — *internal resource memory*: the device memory available for the
  training state and the per-iteration kernel block.

No physical GPU is available in this reproduction, so the abstraction is
realised as an executable model: :class:`DeviceSpec` holds the hardware
parameters, :class:`SimulatedDevice` charges simulated time per iteration
from operation counts and tracks memory allocations against ``S_G``.
Presets approximate the GPUs in the paper's evaluation (Titan Xp, Titan X,
Tesla K40) plus the two idealized devices of Figure 3a.

Everything the paper derives from the GPU — ``m_C``, ``m_S``,
``m_max = min(m_C, m_S)``, the flat-then-linear time-per-iteration curve,
and Amdahl-law epoch times — is a function of this abstraction only, which
is what makes the substitution faithful.
"""

from repro.device.spec import DeviceSpec
from repro.device.simulator import MemoryTracker, SimulatedDevice
from repro.device.cluster import (
    Interconnect,
    allreduce_time,
    multi_gpu,
)
from repro.device.presets import (
    cpu_sequential,
    ideal_parallel,
    ideal_sequential,
    tesla_k40,
    titan_x,
    titan_xp,
)

__all__ = [
    "DeviceSpec",
    "SimulatedDevice",
    "MemoryTracker",
    "Interconnect",
    "multi_gpu",
    "allreduce_time",
    "titan_xp",
    "titan_x",
    "tesla_k40",
    "ideal_parallel",
    "ideal_sequential",
    "cpu_sequential",
]
