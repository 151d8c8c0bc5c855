"""repro — a reproduction of *Kernel Machines That Adapt to GPUs for
Effective Large Batch Training* (Siyuan Ma & Mikhail Belkin, MLSys 2019).

The package implements the full EigenPro 2.0 system described in the paper:

- :mod:`repro.backend` — the pluggable array-backend layer every hot path
  dispatches through: NumPy (default) or Torch (CPU/CUDA, optional).
- :mod:`repro.config` — working precision: ``float64`` (the default) or
  ``float32``.
- :mod:`repro.kernels` — positive-definite kernel functions and blocked,
  memory-bounded kernel-matrix computations.
- :mod:`repro.linalg` — top-q eigensystem solvers and the Nyström extension
  used to build the EigenPro preconditioner.
- :mod:`repro.device` — the parallel-computational-resource abstraction
  ``(C_G, S_G)`` of the paper's Section 2, realised as an executable
  simulated GPU with an analytic timing model and a memory tracker.
- :mod:`repro.data` — synthetic dataset generators standing in for the
  paper's MNIST / TIMIT / SUSY / ImageNet-feature workloads, plus the exact
  preprocessing pipeline of Appendix A.
- :mod:`repro.core` — the paper's contribution: resource-adaptive kernel
  construction (Steps 1–3 of Section 3), the improved EigenPro iteration
  (Algorithm 1) and its analytic parameter selection.
- :mod:`repro.baselines` — plain kernel SGD, the original EigenPro 1.0,
  FALKON, Pegasos, an SMO SVM solver (LibSVM stand-in) and exact solves.
- :mod:`repro.shard` — the Section-6 data-parallel scheme run for real:
  ``g`` shards over a thread or process transport,
  :class:`~repro.shard.ShardedEigenPro2`, checkpoints and elastic
  recovery.
- :mod:`repro.instrument` and :mod:`repro.observe` — shape-derived op
  counts, wall-clock spans, metrics, and
  :func:`~repro.observe.compare_phases`, the per-phase cost model vs a
  traced fit (``python -m repro.experiments observe-report``).
- :mod:`repro.serve` — a micro-batched :class:`~repro.serve.ModelServer`
  whose responses are bitwise equal to a solo
  :func:`~repro.shard.sharded_predict`, plus its HTTP adapter and client.
- :mod:`repro.experiments` — one harness per table/figure of the paper's
  evaluation section.

Quickstart::

    import numpy as np
    from repro import EigenPro2, GaussianKernel, titan_xp
    from repro.data import synthetic_mnist

    ds = synthetic_mnist(n_train=2000, n_test=500, seed=0)
    model = EigenPro2(kernel=GaussianKernel(bandwidth=5.0), device=titan_xp())
    model.fit(ds.x_train, ds.y_train, epochs=5)
    error = model.classification_error(ds.x_test, ds.y_test)

Each subpackage's docstring holds its own overview and contracts.
"""

from repro._version import __version__
from repro.exceptions import (
    BackendLinAlgError,
    BackendUnavailableError,
    ConfigurationError,
    ConvergenceError,
    DeadlineExceeded,
    DeviceMemoryError,
    NotFittedError,
    ReproError,
    ShardError,
)
from repro.backend import (
    ArrayBackend,
    NumpyBackend,
    TorchBackend,
    available_backends,
    get_backend,
    set_backend,
    use_backend,
)
from repro.config import get_precision, use_precision
from repro.kernels import (
    CauchyKernel,
    GaussianKernel,
    Kernel,
    LaplacianKernel,
    PolynomialKernel,
)
from repro.device import (
    DeviceSpec,
    SimulatedDevice,
    ideal_parallel,
    ideal_sequential,
    titan_x,
    titan_xp,
    tesla_k40,
)
from repro.core import (
    AutoParameters,
    EigenPro2,
    KernelModel,
    NystromPreconditioner,
    critical_batch_size,
    max_device_batch_size,
    select_parameters,
    select_q,
)
from repro.serve import (
    HttpClient,
    ModelServer,
    PredictRequest,
    PredictResponse,
    ServeHTTPServer,
    ServeOptions,
)
from repro.shard import (
    ProcessTransport,
    RecoveryEvent,
    ShardCheckpoint,
    ShardGroup,
    ShardPlan,
    ShardTransport,
    ShardedEigenPro2,
    ThreadTransport,
)

__all__ = [
    "__version__",
    # exceptions
    "ReproError",
    "ConfigurationError",
    "ConvergenceError",
    "DeviceMemoryError",
    "NotFittedError",
    "BackendUnavailableError",
    "BackendLinAlgError",
    "ShardError",
    "DeadlineExceeded",
    # backends & precision
    "ArrayBackend",
    "NumpyBackend",
    "TorchBackend",
    "available_backends",
    "get_backend",
    "set_backend",
    "use_backend",
    "get_precision",
    "use_precision",
    # kernels
    "Kernel",
    "GaussianKernel",
    "LaplacianKernel",
    "CauchyKernel",
    "PolynomialKernel",
    # device
    "DeviceSpec",
    "SimulatedDevice",
    "titan_xp",
    "titan_x",
    "tesla_k40",
    "ideal_parallel",
    "ideal_sequential",
    # sharding
    "ShardedEigenPro2",
    "ShardGroup",
    "ShardPlan",
    "ShardCheckpoint",
    "RecoveryEvent",
    "ShardTransport",
    "ThreadTransport",
    "ProcessTransport",
    # serving
    "ModelServer",
    "ServeOptions",
    "PredictRequest",
    "PredictResponse",
    "ServeHTTPServer",
    "HttpClient",
    # core
    "EigenPro2",
    "KernelModel",
    "NystromPreconditioner",
    "AutoParameters",
    "critical_batch_size",
    "max_device_batch_size",
    "select_parameters",
    "select_q",
]
